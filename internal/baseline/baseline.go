// Package baseline provides the comparison points of §I-A and §VI: the
// paper-published reference throughputs (FFTW on a Xeon E5-2690, the
// Edison Cray XC30, and prior GPU/MPI results), and a runnable
// FFTW-substitute — this repository's own host FFT, measured serially
// and in parallel on the machine running the tests.
//
// The published constants are data, not measurements: the paper's
// speedup tables are ratios against its FFTW baseline, so reproducing
// the tables requires the baseline the paper used. Where the paper
// states only speedups, the implied baseline is back-derived (Table IV
// GFLOPS ÷ Table V speedups, consistent across all five configurations).
package baseline

import (
	"time"

	"xmtfft/internal/fft"
	"xmtfft/internal/stats"
)

// Published reference throughputs (GFLOPS, 5·N·log2 N convention).
const (
	// FFTWSerialGFLOPS is serial FFTW 3.3.4 on one core of a 3.3 GHz
	// Xeon E5-2690 (back-derived: Table IV ÷ Table V "vs serial" row;
	// 3667/482 = 7.61, consistent within rounding across the row).
	FFTWSerialGFLOPS = 7.61
	// FFTWParallelGFLOPS is FFTW with 32 threads on a dual E5-2690
	// system (back-derived: 12570/147 = 85.5).
	FFTWParallelGFLOPS = 85.5
)

// Xeon E5-2690 physical data used in §VI-A's silicon-area comparison.
const (
	XeonAreaMM2   = 416 // at 32 nm
	XeonProcessNm = 32
	XeonCores     = 8
	XeonCacheMB   = 20
)

// XeonAreaAt22nm returns the E5-2690 die area ideally scaled to 22 nm
// (quadratic feature-size scaling, as the paper applies in §VI-A).
func XeonAreaAt22nm() float64 {
	f := 22.0 / XeonProcessNm
	return XeonAreaMM2 * f * f
}

// Edison holds the published Cray XC30 figures of Table VI.
type Edison struct {
	Cores            int
	Nodes            int
	TotalCacheMB     int
	CPUChips         int
	RouterChips      int
	SiliconCM2at22nm float64 // CPU silicon, 22 nm process
	SiliconCM2at40nm float64 // router silicon, 40 nm process
	NormalizedCM2    float64 // paper's normalization to 22 nm
	PeakPowerKW      float64
	PeakTFLOPS       float64
	FFTTFLOPS        float64 // 3D FFT, 1024^3 input
	FFTInputSize     int
}

// EdisonData returns Table VI's Edison column.
func EdisonData() Edison {
	return Edison{
		Cores:            124608,
		Nodes:            5192,
		TotalCacheMB:     311520,
		CPUChips:         10384,
		RouterChips:      1298,
		SiliconCM2at22nm: 56177,
		SiliconCM2at40nm: 4072,
		NormalizedCM2:    57409,
		PeakPowerKW:      2500,
		PeakTFLOPS:       2390,
		FFTTFLOPS:        13.6,
		FFTInputSize:     1024,
	}
}

// PercentOfPeak returns Edison's FFT efficiency (the paper's 0.57%).
func (e Edison) PercentOfPeak() float64 { return e.FFTTFLOPS / e.PeakTFLOPS * 100 }

// XMTPowerKW is the paper's peak power estimate for the 128k x4
// configuration (Table VI).
const XMTPowerKW = 7.0

// Intel14to22AreaFactor is Intel's published logic-area scaling factor
// from 22 nm to 14 nm (§V-D, citing Borkar/Bohr/Jourdan 2014); the
// paper normalizes the 14 nm XMT configurations to 22 nm by dividing by
// it (35.4 cm² / 0.54 ≈ 66 cm²).
const Intel14to22AreaFactor = 0.54

// PriorResult is one row of the §I-A prior-work survey.
type PriorResult struct {
	System    string
	Kind      string // "GPU", "GPU/CPU hybrid", "MPI", "XMT"
	GFLOPS    float64
	Problem   string
	Reference string
}

// PriorWork returns the §I-A survey used for context in reports.
func PriorWork() []PriorResult {
	return []PriorResult{
		{"NVIDIA GTX 280", "GPU", 300, "1D FFT", "Govindaraju et al. 2008"},
		{"NVIDIA GTX 280", "GPU", 120, "2D FFT 1024x1024", "Govindaraju et al. 2008"},
		{"NVIDIA Tesla C2075", "GPU/CPU hybrid", 43, "2D FFT", "Chen and Li 2013"},
		{"NVIDIA Tesla C2075", "GPU/CPU hybrid", 27, "3D FFT", "Chen and Li 2013"},
		{"Cray, 32768 cores", "MPI", 13603, "3D FFT 1024^3", "Song and Hollingsworth 2014"},
		{"Cray, 32768 cores", "MPI", 17611, "3D FFT 4096x4096x2048", "Song and Hollingsworth 2014"},
		{"BlueGene/Q, 16384 cores", "MPI", 3287, "3D FFT 1024^3", "Nikl and Jaros 2014"},
	}
}

// XMTSpeedup is one row of Table I.
type XMTSpeedup struct {
	Algorithm string
	XMT       string
	Other     string
	Factor    string
}

// TableI returns the published XMT speedup survey (Table I), plus the
// in-text FFT and gate-level results.
func TableI() []XMTSpeedup {
	return []XMTSpeedup{
		{"Graph Biconnectivity", "33X", "4X (random graphs only)", ">>8"},
		{"Graph Triconnectivity", "129X", "serial only", "129"},
		{"Max Flow", "108X", "2.5X", "43"},
		{"Burrows-Wheeler Compression", "25X", "X/2.5 on GPU", "70"},
		{"Burrows-Wheeler Decompression", "13X", "1.1X", "11"},
	}
}

// HostResult is one measured run of this repository's Go FFT on the
// host machine: the runnable stand-in for FFTW.
type HostResult struct {
	Dim      int // 1 or 3
	N        int // points per dimension
	Workers  int
	Codelets bool
	Times    []time.Duration // per transform, one entry per repetition
	Elapsed  time.Duration   // the best of Times (FFTW's own reporting convention)
	GFLOPS   float64         // at Elapsed, 5·N·log2(N) convention
}

// MeasureHost3D times a single-precision n³ 3D FFT on the host with the
// given worker count (1 = serial), repeated reps times. opts are further
// plan options, e.g. fft.WithCodelets(false) for the codelet ablation.
// The plan is private to the measurement, so its array-sized scratch is
// freed with it.
func MeasureHost3D(n, workers, reps int, opts ...fft.PlanOption) (HostResult, error) {
	total := n * n * n
	data := make([]complex64, total)
	for i := range data {
		data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
	p, err := fft.NewPlan3D[complex64](n, n, n, append(opts[:len(opts):len(opts)], fft.WithWorkers(workers))...)
	if err != nil {
		return HostResult{}, err
	}
	// The 3D plan runs its rows through 1D plans built with the same
	// options, so a 1D plan of the row length shows whether codelet
	// leaves run.
	row, err := fft.NewPlan[complex64](n, opts...)
	if err != nil {
		return HostResult{}, err
	}
	res := HostResult{Dim: 3, N: n, Workers: workers, Codelets: row.UsesCodelets()}
	return timeTransform(res, data, func(x []complex64) error { return p.Transform(x, fft.Forward) }, reps, 1, total)
}

// MeasureHost1D times single-precision serial n-point 1D transforms with
// the codelet leaves on or off: the microbenchmark pair behind the
// "Host FFT performance" numbers. A single row is microseconds, so each
// repetition times a batch of iterations and reports the per-transform
// time.
func MeasureHost1D(n, reps int, codelets bool) (HostResult, error) {
	res := HostResult{Dim: 1, N: n, Workers: 1, Codelets: codelets}
	p, err := fft.CachedPlan[complex64](n, fft.WithCodelets(codelets))
	if err != nil {
		return res, err
	}
	data := make([]complex64, n)
	for i := range data {
		data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
	// 1M points per repetition keeps each batch at 10-30 ms (n = 64 to
	// 8192 on a 2-vCPU VM), long enough for stable timer resolution.
	iters := 1 << 20 / n
	if iters < 1 {
		iters = 1
	}
	transform := func(x []complex64) error {
		for i := 0; i < iters; i++ {
			if err := p.Transform(x, fft.Forward); err != nil {
				return err
			}
		}
		return nil
	}
	return timeTransform(res, data, transform, reps, iters, n)
}

// timeTransform runs one untimed warmup (faulting in freshly allocated
// plan and copy buffers so the timed repetitions measure the steady
// state rather than first-touch page costs), then times reps runs,
// normalizing each by the iterations per run.
func timeTransform(res HostResult, data []complex64, transform func([]complex64) error, reps, iters, points int) (HostResult, error) {
	if reps < 1 {
		reps = 1
	}
	buf := make([]complex64, len(data))
	copy(buf, data)
	if err := transform(buf); err != nil {
		return res, err
	}
	for i := 0; i < reps; i++ {
		copy(buf, data)
		start := time.Now()
		err := transform(buf)
		d := max(time.Since(start)/time.Duration(iters), 1)
		if err != nil {
			return res, err
		}
		res.Times = append(res.Times, d)
		if res.Elapsed == 0 || d < res.Elapsed {
			res.Elapsed = d
		}
	}
	res.GFLOPS = stats.StandardFFTFlops(points) / res.Elapsed.Seconds() / 1e9
	return res, nil
}
