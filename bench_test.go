// Benchmark suite: one benchmark per table and figure of the paper's
// evaluation (regenerating the artifact), the detailed-simulation
// measurement behind the cross-validation, and micro-benchmarks of the
// FFT library. The host FFT's design-choice ablations (radix,
// breadth-first vs depth-first, blocked vs naive fused rotation) live
// with the code they compare, in internal/fft.
//
// Run with: go test -bench=. -benchmem
package xmtfft_test

import (
	"io"
	"math"
	"math/rand"
	"testing"

	"xmtfft/internal/baseline"
	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/harness"
	"xmtfft/internal/isa"
	"xmtfft/internal/model"
	"xmtfft/internal/spectral"
	"xmtfft/internal/stats"
	"xmtfft/internal/trace"
	"xmtfft/internal/xmt"
	"xmtfft/internal/xmtc"
)

// --- Tables and figures -------------------------------------------------

func benchTable(b *testing.B, f func(io.Writer) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := f(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B)   { benchTable(b, harness.TableI) }
func BenchmarkTableII(b *testing.B)  { benchTable(b, harness.TableII) }
func BenchmarkTableIII(b *testing.B) { benchTable(b, harness.TableIII) }
func BenchmarkTableIV(b *testing.B)  { benchTable(b, harness.TableIV) }
func BenchmarkTableV(b *testing.B)   { benchTable(b, harness.TableV) }
func BenchmarkTableVI(b *testing.B)  { benchTable(b, harness.TableVI) }
func BenchmarkFig3(b *testing.B)     { benchTable(b, harness.Fig3) }

// BenchmarkProjection512 times the analytic model across all five
// configurations at the paper's 512^3 input.
func BenchmarkProjection512(b *testing.B) {
	cfgs := config.Paper()
	for i := 0; i < b.N; i++ {
		for _, c := range cfgs {
			if _, err := model.Project3D(c, model.PaperN); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Detailed XMT simulation (the measurement behind Table IV's shape) --

func benchDetailedSim(b *testing.B, base config.Config, tcus, n int) {
	cfg, err := base.Scaled(tcus)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := xmt.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := core.New3D(m, n, n, n)
		if err != nil {
			b.Fatal(err)
		}
		for j := range tr.Data {
			tr.Data[j] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		}
		run, err := tr.Run(fft.Forward)
		if err != nil {
			b.Fatal(err)
		}
		cycles = run.TotalCycles()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
	b.ReportMetric(stats.StandardGFLOPS(n*n*n, cycles, config.ClockGHz), "sim-GFLOPS")
}

func BenchmarkXMTSim3D_4kScaled256_16(b *testing.B) {
	benchDetailedSim(b, config.FourK(), 256, 16)
}

func BenchmarkXMTSim3D_4kScaled256_32(b *testing.B) {
	benchDetailedSim(b, config.FourK(), 256, 32)
}

func BenchmarkXMTSim3D_4kScaled1024_32(b *testing.B) {
	benchDetailedSim(b, config.FourK(), 1024, 32)
}

func BenchmarkXMTSim3D_64kScaled1024_32(b *testing.B) {
	benchDetailedSim(b, config.SixtyFourK(), 1024, 32)
}

// --- Tracing overhead guard ---------------------------------------------
//
// The pair below is the ≤2% contract of internal/trace: with no recorder
// attached every emission site is a nil check, so TracingOff must match
// the plain simulation benchmarks, and TracingOn bounds the cost of full
// event recording + epoch sampling.

func benchTracedSim(b *testing.B, epoch uint64) {
	cfg, err := config.FourK().Scaled(256)
	if err != nil {
		b.Fatal(err)
	}
	const n = 16
	rng := rand.New(rand.NewSource(1))
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := xmt.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if epoch > 0 {
			m.AttachRecorder(trace.NewRecorder(epoch))
		}
		tr, err := core.New3D(m, n, n, n)
		if err != nil {
			b.Fatal(err)
		}
		for j := range tr.Data {
			tr.Data[j] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		}
		run, err := tr.Run(fft.Forward)
		if err != nil {
			b.Fatal(err)
		}
		cycles = run.TotalCycles()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkXMTSimTracingOff_16(b *testing.B) { benchTracedSim(b, 0) }
func BenchmarkXMTSimTracingOn_16(b *testing.B)  { benchTracedSim(b, 256) }

// --- Host FFT library micro-benchmarks ----------------------------------

func reportFFTMetrics(b *testing.B, n int) {
	b.Helper()
	nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(stats.StandardFFTFlops(n)/nsPerOp, "GFLOPS")
}

func benchFFT1D(b *testing.B, n int) {
	p, err := fft.NewPlan[complex64](n)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]complex64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Transform(x, fft.Forward); err != nil {
			b.Fatal(err)
		}
	}
	reportFFTMetrics(b, n)
}

func BenchmarkFFT1D_64(b *testing.B)     { benchFFT1D(b, 64) }
func BenchmarkFFT1D_1024(b *testing.B)   { benchFFT1D(b, 1024) }
func BenchmarkFFT1D_16384(b *testing.B)  { benchFFT1D(b, 16384) }
func BenchmarkFFT1D_262144(b *testing.B) { benchFFT1D(b, 262144) }

// Host baseline measurement path used by cmd/tables -host.
func BenchmarkHostBaseline3D_32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := baseline.MeasureHost3D(32, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extensions ----------------------------------------------------------

// Granularity ablation on the simulated machine (§IV-A "Granularity of
// parallelism"): fine-grained (one thread per butterfly) vs coarse
// (one thread per row).
func benchGranularity(b *testing.B, coarse bool) {
	cfg, err := config.FourK().Scaled(512)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := xmt.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := core.New3D(m, 16, 16, 16)
		if err != nil {
			b.Fatal(err)
		}
		for j := range tr.Data {
			tr.Data[j] = complex(float32(j%7), float32(j%5))
		}
		var run stats.Run
		if coarse {
			run, err = tr.RunCoarse(fft.Forward)
		} else {
			run, err = tr.Run(fft.Forward)
		}
		if err != nil {
			b.Fatal(err)
		}
		cycles = run.TotalCycles()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkXMTSimFineGrained_16(b *testing.B)   { benchGranularity(b, false) }
func BenchmarkXMTSimCoarseGrained_16(b *testing.B) { benchGranularity(b, true) }

// Radix ablation on the simulated machine.
func benchSimRadix(b *testing.B, radix int) {
	cfg, err := config.FourK().Scaled(256)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := xmt.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := core.New3D(m, 16, 16, 16)
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.SetFixedRadix(radix); err != nil {
			b.Fatal(err)
		}
		for j := range tr.Data {
			tr.Data[j] = complex(float32(j%7), float32(j%5))
		}
		run, err := tr.Run(fft.Forward)
		if err != nil {
			b.Fatal(err)
		}
		cycles = run.TotalCycles()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkXMTSimRadix2_16(b *testing.B) { benchSimRadix(b, 2) }
func BenchmarkXMTSimRadix8_16(b *testing.B) { benchSimRadix(b, 8) }

// Arbitrary-length transforms via Bluestein's algorithm.
func BenchmarkBluestein_1000(b *testing.B) {
	p, err := fft.NewBluestein[complex128](1000)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]complex128, 1000)
	for i := range x {
		x[i] = complex(float64(i%13), float64(i%7))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Transform(x, fft.Forward); err != nil {
			b.Fatal(err)
		}
	}
	reportFFTMetrics(b, 1000)
}

// Real-input transform vs complex transform of the same length.
func BenchmarkRealFFT_4096(b *testing.B) {
	x := make([]float32, 4096)
	for i := range x {
		x[i] = float32(i % 17)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fft.RealForward[complex64](x); err != nil {
			b.Fatal(err)
		}
	}
	reportFFTMetrics(b, 4096)
}

// The scaling study (size sweep across all configurations).
func BenchmarkScalingSweep(b *testing.B) {
	sizes := []int{64, 128, 256, 512, 1024}
	for i := 0; i < b.N; i++ {
		for _, c := range config.Paper() {
			if _, err := model.SizeSweep(c, sizes); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ISA-level workload: the logarithmic-time prefix-sum program.
func BenchmarkISAPrefixSum(b *testing.B) {
	prog, err := isa.Assemble(isa.PrefixSumProgram(1024, 0, 8192))
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := config.FourK().Scaled(256)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := xmt.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		vm := isa.NewVM(m, prog, 1<<16)
		for j := 0; j < 1024; j++ {
			vm.StoreWord(j*4, 1)
		}
		if cycles, err = vm.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// XMTC compilation and execution of the in-language FFT.
func BenchmarkXMTCCompile(b *testing.B) {
	src := xmtc.FFT1DSource(64)
	for i := 0; i < b.N; i++ {
		if _, err := xmtc.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMTCFFTSim_64(b *testing.B) {
	src := xmtc.FFT1DSource(64)
	c, err := xmtc.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := config.FourK().Scaled(256)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := xmt.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, cyc, err := c.Run(m, 0, func(vm *isa.VM) {
			wre := c.Symbols["wre"].Addr
			wim := c.Symbols["wim"].Addr
			for j := 0; j < 64; j++ {
				s, cc := math.Sincos(-2 * math.Pi * float64(j) / 64)
				vm.StoreFloat(wre+j*4, float32(cc))
				vm.StoreFloat(wim+j*4, float32(s))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = cyc
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// Prefetcher ablation on the simulated machine (§II-A enhancement).
func benchPrefetch(b *testing.B, on bool) {
	cfg, err := config.FourK().Scaled(256)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := xmt.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m.EnablePrefetch(on)
		tr, err := core.New3D(m, 32, 32, 32)
		if err != nil {
			b.Fatal(err)
		}
		for j := range tr.Data {
			tr.Data[j] = complex(float32(j%7), float32(j%5))
		}
		run, err := tr.Run(fft.Forward)
		if err != nil {
			b.Fatal(err)
		}
		cycles = run.TotalCycles()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkXMTSimPrefetchOff_32(b *testing.B) { benchPrefetch(b, false) }
func BenchmarkXMTSimPrefetchOn_32(b *testing.B)  { benchPrefetch(b, true) }

// Spectral estimators and library extensions.
func BenchmarkWelchPSD(b *testing.B) {
	x := make([]float64, 1<<14)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.Welch(x, 8000, 1024, 512, fft.Hann); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchInterleaved(b *testing.B) {
	const n, ch = 1024, 8
	bp, err := fft.NewBatchPlan[complex64](n, ch, ch, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]complex64, n*ch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bp.Transform(x, fft.Forward); err != nil {
			b.Fatal(err)
		}
	}
}
