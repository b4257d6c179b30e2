// Package model is the analytic performance model that projects the
// paper's 512³ FFT results (Tables IV-VI and Fig. 3) onto each XMT
// configuration. A per-event simulation of the full 18-GFLOP workload is
// infeasible in-process, so — exactly as the paper does with XMTSim —
// the headline numbers come from a model of the machine's binding
// resources. Its constants are fit to the paper's Table IV (DESIGN.md
// §5). The detailed event simulator of internal/xmt does not back them:
// the only cross-check, TestModelMatchesDetailedSim, runs two scaled 4k
// machines at 32³, reads sim/model cycle ratios of 0.85 and 0.47, and
// accepts anything in [0.4, 2.5].
//
// Project is the model's one pass loop. Per pass, three times are
// computed and combined:
//
//   - compute: total FLOPs through clusters × FPUs at 1 FLOP/cycle;
//   - DRAM: bytes moved over the aggregate channel bandwidth, with
//     write-allocate accounting (a streamed store costs a line fetch
//     plus an eventual writeback) and a rotation-pass write
//     amplification for the strided, line-underutilizing writes of the
//     fused FFT+rotation pass;
//   - NoC: word traffic (data + twiddle reads) over the aggregate
//     injection bandwidth derated by a calibrated per-butterfly-level
//     acceptance factor (pure MoT networks are non-blocking).
//
// Pass time = max(compute, sqrt(dram² + noc²)): DRAM and interconnect
// queueing delays compound (requests traverse both in series and the
// queues interact), while compute either hides under memory time or
// dominates outright. The sqrt combination reproduces both the
// bandwidth-bound small configurations and the NoC-choked large ones;
// see DESIGN.md §5 and EXPERIMENTS.md for paper-vs-model numbers.
package model

import (
	"fmt"
	"math"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
)

// Calibration constants (derived in DESIGN.md §5; bytes are per point
// per pass for single-precision complex data).
const (
	// StreamReadBytes: one 8-byte complex read, missing once per line.
	StreamReadBytes = 8
	// StreamWriteBytes: write-allocate fetch + writeback per 8 bytes.
	StreamWriteBytes = 16
	// RotationWriteAmp: fraction of rotated-store lines that are not
	// fully coalesced before eviction, amplifying write traffic.
	RotationWriteAmp = 1.5
	// NoCDataBytes: request words crossing the interconnect per point
	// (8 B loaded + 8 B stored).
	NoCDataBytes = 16
	// NoCLevelFactor is the calibrated per-butterfly-level acceptance
	// under FFT traffic: between the unbuffered 2×2-switch recurrence
	// (a geometric mean of 0.85 per level over 7 levels, 0.87 over 9)
	// and the buffered ideal 1.0.
	NoCLevelFactor = 0.89
)

// Params bundles the calibration constants so they can be varied.
type Params struct {
	StreamWriteBytes float64 // write-allocate cost per 8-byte store
	RotationWriteAmp float64
	NoCDataBytes     float64
	NoCLevelFactor   float64
}

// Calibrated returns the calibration constants as Params.
func Calibrated() Params {
	return Params{
		StreamWriteBytes: StreamWriteBytes,
		RotationWriteAmp: RotationWriteAmp,
		NoCDataBytes:     NoCDataBytes,
		NoCLevelFactor:   NoCLevelFactor,
	}
}

// PhasePoint is one marker of Fig. 3: a phase's position in the
// Roofline plane plus its absolute time.
type PhasePoint struct {
	Name         string
	TimeSec      float64
	Flops        float64 // actual FLOPs (Roofline convention, §VI-B)
	DRAMBytes    float64
	ActualGFLOPS float64 // Flops / TimeSec / 1e9
	Intensity    float64 // Flops / DRAMBytes
}

// Binding identifies the resource that limits a projection.
type Binding string

// Binding values.
const (
	BindCompute Binding = "compute"
	BindDRAM    Binding = "dram"
	BindNoC     Binding = "noc"
)

// Projection is the modeled execution of one 3D FFT on one config.
type Projection struct {
	Cfg      config.Config
	N        int    // points per dimension for cubic inputs (= Dims[2])
	Dims     [3]int // full array shape
	Stream   PhasePoint
	Rotation PhasePoint
	Overall  PhasePoint
	// GFLOPS is the headline number under the 5·N·log2(N) convention
	// used by Tables IV-VI.
	GFLOPS float64
	// Binding is compute when the summed compute time of all passes is
	// the largest of the three resource times; otherwise whichever of
	// DRAM and NoC contributes more to the combined memory term.
	Binding Binding
}

// TotalPoints returns the array size.
func (p Projection) TotalPoints() int { return p.Dims[0] * p.Dims[1] * p.Dims[2] }

// passTimes are one breadth-first pass's resource times and traffic.
type passTimes struct {
	compute, dram, noc float64 // seconds
	flops, dramBytes   float64
}

// passTime times one breadth-first pass over points with the given
// radix under the calibration prm.
func passTime(cfg config.Config, prm Params, points float64, radix int, rotation bool) passTimes {
	flopsPerPoint := float64(core.FlopsPerButterfly(radix)) / float64(radix)
	twiddleNoC := 8 * float64(radix-1) / float64(radix) // replicated-table reads

	var t passTimes
	t.flops = flopsPerPoint * points
	wb := prm.StreamWriteBytes
	if rotation {
		wb *= prm.RotationWriteAmp
	}
	t.dramBytes = (StreamReadBytes + wb) * points

	peakFlops := cfg.PeakGFLOPS() * 1e9
	peakDRAM := cfg.PeakDRAMBandwidthGBs() * 1e9
	// Usable aggregate NoC bandwidth: the injection bandwidth derated
	// by the acceptance factor once per butterfly level.
	nocBW := cfg.AggregateNoCBandwidthGBs() * math.Pow(prm.NoCLevelFactor, float64(cfg.ButterflyLevels)) * 1e9

	t.compute = t.flops / peakFlops
	t.dram = t.dramBytes / peakDRAM
	t.noc = (prm.NoCDataBytes + twiddleNoC) * points / nocBW
	return t
}

// combine folds the three resource times into a pass duration.
func (t passTimes) combine() float64 {
	mem := math.Sqrt(t.dram*t.dram + t.noc*t.noc)
	return math.Max(t.compute, mem)
}

// Project models a single-precision dims[0]×dims[1]×dims[2] FFT on cfg
// under the calibration prm, mirroring the kernel's structure: rounds
// transform row lengths dims[2], dims[1], dims[0] in the kernel's
// rotation order, each as log_r(len) breadth-first passes with the last
// pass of the round fused with the axis rotation. It is the model's
// only pass loop: Project3D, the tables, the sweeps and Sensitivity all
// call it.
func Project(cfg config.Config, dims [3]int, prm Params) (Projection, error) {
	if err := cfg.Validate(); err != nil {
		return Projection{}, err
	}
	points := float64(dims[0]) * float64(dims[1]) * float64(dims[2])

	var stream, rot PhasePoint
	stream.Name, rot.Name = "non-rotation", "rotation"
	var compute, dram, noc float64 // summed over all passes, for Binding
	for _, rowLen := range []int{dims[2], dims[1], dims[0]} {
		radices, err := fft.Radices(rowLen)
		if err != nil {
			return Projection{}, err
		}
		for p, r := range radices {
			last := p == len(radices)-1
			t := passTime(cfg, prm, points, r, last)
			dst := &stream
			if last {
				dst = &rot
			}
			dst.TimeSec += t.combine()
			dst.Flops += t.flops
			dst.DRAMBytes += t.dramBytes
			compute += t.compute
			dram += t.dram
			noc += t.noc
		}
	}
	finish := func(p *PhasePoint) {
		if p.TimeSec > 0 {
			p.ActualGFLOPS = p.Flops / p.TimeSec / 1e9
		}
		if p.DRAMBytes > 0 {
			p.Intensity = p.Flops / p.DRAMBytes
		}
	}
	finish(&stream)
	finish(&rot)
	overall := PhasePoint{
		Name:      "overall",
		TimeSec:   stream.TimeSec + rot.TimeSec,
		Flops:     stream.Flops + rot.Flops,
		DRAMBytes: stream.DRAMBytes + rot.DRAMBytes,
	}
	finish(&overall)

	binding := BindNoC
	switch {
	case compute >= dram && compute >= noc:
		binding = BindCompute
	case dram >= noc:
		binding = BindDRAM
	}
	std := 5 * points * math.Log2(points)
	return Projection{
		Cfg: cfg, N: dims[2], Dims: dims,
		Stream: stream, Rotation: rot, Overall: overall,
		GFLOPS:  std / overall.TimeSec / 1e9,
		Binding: binding,
	}, nil
}

// Project3D is Project on an n×n×n cube with the calibrated constants.
func Project3D(cfg config.Config, n int) (Projection, error) {
	return Project(cfg, [3]int{n, n, n}, Calibrated())
}

// ProjectCycles returns the modeled cycle count of Project3D at the
// machine clock, for cross-validation against the event simulator.
func ProjectCycles(cfg config.Config, n int) (uint64, error) {
	p, err := Project3D(cfg, n)
	if err != nil {
		return 0, err
	}
	return uint64(p.Overall.TimeSec * config.ClockGHz * 1e9), nil
}

// Roofline describes a configuration's roof for Fig. 3.
type Roofline struct {
	PeakGFLOPS float64
	PeakGBs    float64
	Ridge      float64 // FLOPs/byte where the roof flattens
}

// RooflineOf returns cfg's roofline parameters.
func RooflineOf(cfg config.Config) Roofline {
	return Roofline{
		PeakGFLOPS: cfg.PeakGFLOPS(),
		PeakGBs:    cfg.PeakDRAMBandwidthGBs(),
		Ridge:      cfg.RidgeIntensity(),
	}
}

// Bound returns the roofline ceiling (GFLOPS) at the given intensity.
func (r Roofline) Bound(intensity float64) float64 {
	return math.Min(r.PeakGFLOPS, intensity*r.PeakGBs)
}

func (p Projection) String() string {
	return fmt.Sprintf("%s n=%d: %.0f GFLOPS (5NlogN), overall %.0f GFLOPS actual at %.3f FLOPs/B, %s-bound",
		p.Cfg.Name, p.N, p.GFLOPS, p.Overall.ActualGFLOPS, p.Overall.Intensity, p.Binding)
}
