package model

import "xmtfft/internal/config"

// Sweeps over problem size and machine size: the scaling studies that
// extend the paper's single-point (512³) evaluation. These identify,
// for every (configuration, size) pair, which resource binds — the
// machine-balance question §V is ultimately about.

// SizeSweep projects cfg across per-dimension sizes (each a power of
// two), e.g. 64..1024.
func SizeSweep(cfg config.Config, sizes []int) ([]Projection, error) {
	out := make([]Projection, 0, len(sizes))
	for _, n := range sizes {
		p, err := Project3D(cfg, n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// StrongPoint is one configuration of the fixed-size sweep.
type StrongPoint struct {
	Projection
	Speedup float64 // vs the smallest configuration
}

// StrongScaling projects a fixed size across all paper configurations,
// returning speedups relative to the first.
func StrongScaling(n int) ([]StrongPoint, error) {
	cfgs := config.Paper()
	out := make([]StrongPoint, 0, len(cfgs))
	var base float64
	for i, c := range cfgs {
		p, err := Project3D(c, n)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = p.Overall.TimeSec
		}
		out = append(out, StrongPoint{Projection: p, Speedup: base / p.Overall.TimeSec})
	}
	return out, nil
}

// WeakPoint is one row of the weak-scaling study.
type WeakPoint struct {
	Projection
	Efficiency float64 // time(base) / time(this): 1.0 = perfect weak scaling
}

// WeakScaling grows the working set with the machine: each doubling of
// TCUs relative to the 4k baseline doubles one array axis (base n per
// axis for 4k). The related-work MPI studies the paper cites (§I-A)
// report weak scaling this way; efficiency is base time / scaled time.
func WeakScaling(baseN int) ([]WeakPoint, error) {
	cfgs := config.Paper()
	base := cfgs[0]
	out := make([]WeakPoint, 0, len(cfgs))
	var baseTime float64
	for _, c := range cfgs {
		factor := c.TCUs / base.TCUs
		dims := [3]int{baseN, baseN, baseN}
		for axis := 0; factor > 1; factor /= 2 {
			dims[axis%3] *= 2
			axis++
		}
		p, err := Project(c, dims, Calibrated())
		if err != nil {
			return nil, err
		}
		if c.TCUs == base.TCUs {
			baseTime = p.Overall.TimeSec
		}
		out = append(out, WeakPoint{Projection: p, Efficiency: baseTime / p.Overall.TimeSec})
	}
	return out, nil
}

// FPUPoint is one entry of the FPU-count design sweep.
type FPUPoint struct {
	Projection
	// Gain is this point's GFLOPS over the previous point's.
	Gain float64
}

// FPUSweep varies FPUs per cluster on a base configuration and projects
// the 512³ FFT — the §V-E design decision ("we also increase the number
// of FPUs to four per cluster; beyond this number, we observe
// diminishing returns"). The sweep quantifies where the returns
// diminish: once the interconnect term dominates, more FPUs stop
// helping.
func FPUSweep(base config.Config, fpus []int) ([]FPUPoint, error) {
	out := make([]FPUPoint, 0, len(fpus))
	prev := 0.0
	for _, f := range fpus {
		c := base
		c.FPUsPerCluster = f
		p, err := Project3D(c, PaperN)
		if err != nil {
			return nil, err
		}
		pt := FPUPoint{Projection: p}
		if prev > 0 {
			pt.Gain = p.GFLOPS / prev
		}
		prev = p.GFLOPS
		out = append(out, pt)
	}
	return out, nil
}
