package fft

// Host FFT ablation benchmarks: the paper's §IV-A design choices
// (radix, breadth-first vs depth-first, four-step) and the §VI-B fused
// rounds, blocked vs naive. CI runs the Blocked family once per push
// (-bench=Blocked -benchtime=1x) so the pairs cannot bit-rot.

import (
	"testing"

	"xmtfft/internal/stats"
)

func reportFFTMetrics(b *testing.B, n int) {
	b.Helper()
	nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(stats.StandardFFTFlops(n)/nsPerOp, "GFLOPS")
}

// benchTransform times transform on an n-point input (a deterministic
// pattern, so runs compare) after one untimed call that faults in the
// plan's and the benchmark's buffers.
func benchTransform[T Complex](b *testing.B, n int, transform func([]T) error) {
	x := make([]T, n)
	for i := range x {
		x[i] = T(complex(float64(i%13), float64(i%7)))
	}
	if err := transform(x); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := transform(x); err != nil {
			b.Fatal(err)
		}
	}
	reportFFTMetrics(b, n)
}

// Radix ablation (§IV-A "Choice of Radix"): same transform size,
// radix-2 vs radix-4 vs radix-8 pass decompositions.
func benchFFTRadix(b *testing.B, radix int) {
	const n = 4096
	rs, err := RadicesFixed(n, radix)
	if err != nil {
		b.Fatal(err)
	}
	p := planWithRadices[complex64](n, rs)
	benchTransform(b, n, func(x []complex64) error { return p.Transform(x, Forward) })
}

func BenchmarkFFT1DRadix2_4096(b *testing.B) { benchFFTRadix(b, 2) }
func BenchmarkFFT1DRadix4_4096(b *testing.B) { benchFFTRadix(b, 4) }
func BenchmarkFFT1DRadix8_4096(b *testing.B) { benchFFTRadix(b, 8) }

// Organization ablation (§IV-A "Depth-first versus breadth-first").
func BenchmarkFFT1DBreadthFirst_65536(b *testing.B) {
	p, err := NewPlan[complex128](65536, WithNorm(NormNone))
	if err != nil {
		b.Fatal(err)
	}
	benchTransform(b, 65536, func(x []complex128) error { return p.Transform(x, Forward) })
}

func BenchmarkFFT1DDepthFirst_65536(b *testing.B) {
	benchTransform(b, 65536, func(x []complex128) error { return RecursiveDIT(x, Forward) })
}

func BenchmarkFFT1DHybrid_65536(b *testing.B) {
	benchTransform(b, 65536, func(x []complex128) error { return HybridDepthBreadth(x, Forward, 4096) })
}

func BenchmarkFFT1DClassicDIT2_65536(b *testing.B) {
	benchTransform(b, 65536, func(x []complex128) error { return DIT2InPlace(x, Forward) })
}

func BenchmarkFourStep_65536(b *testing.B) {
	benchTransform(b, 65536, func(x []complex128) error { return FourStep(x, Forward, 256) })
}

// 3D host transforms: the FFTW-substitute baseline measurements.
func benchFFT3D(b *testing.B, n, workers int) {
	p, err := NewPlan3D[complex64](n, n, n, WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n * n * n * 8))
	benchTransform(b, n*n*n, func(x []complex64) error { return p.Transform(x, Forward) })
}

func BenchmarkFFT3DSerial_64(b *testing.B)    { benchFFT3D(b, 64, 1) }
func BenchmarkFFT3DParallel4_64(b *testing.B) { benchFFT3D(b, 64, 4) }

// Blocked vs naive fused rounds: the cache-blocking ablation. The
// blocked plans tile the fused row-FFT+rotation so writes land on
// contiguous cache lines; the naive oracle is the one-scattered-write-
// per-element round they replaced, over the same row plans.
func benchBlockedFused3D(b *testing.B, n, workers int, naive bool) {
	p, err := NewPlan3D[complex64](n, n, n, WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	transform := func(x []complex64) error { return p.Transform(x, Forward) }
	if naive {
		buf := make([]complex64, n*n*n)
		transform = func(x []complex64) error { return naiveTransform(&p.r, x, buf, Forward) }
	}
	b.SetBytes(int64(n * n * n * 8))
	benchTransform(b, n*n*n, transform)
}

func BenchmarkBlockedFused3D_128(b *testing.B)      { benchBlockedFused3D(b, 128, 1, false) }
func BenchmarkBlockedFused3DNaive_128(b *testing.B) { benchBlockedFused3D(b, 128, 1, true) }
func BenchmarkBlockedFused3D_256(b *testing.B)      { benchBlockedFused3D(b, 256, 1, false) }
func BenchmarkBlockedFused3DNaive_256(b *testing.B) { benchBlockedFused3D(b, 256, 1, true) }

func BenchmarkBlockedFused3DParallel4_128(b *testing.B) { benchBlockedFused3D(b, 128, 4, false) }

func benchBlockedFused2D(b *testing.B, d int, naive bool) {
	p, err := NewPlan2D[complex64](d, d)
	if err != nil {
		b.Fatal(err)
	}
	transform := func(x []complex64) error { return p.Transform(x, Forward) }
	if naive {
		buf := make([]complex64, d*d)
		transform = func(x []complex64) error { return naiveTransform(&p.r, x, buf, Forward) }
	}
	b.SetBytes(int64(d * d * 8))
	benchTransform(b, d*d, transform)
}

func BenchmarkBlockedFused2D_1024(b *testing.B)      { benchBlockedFused2D(b, 1024, false) }
func BenchmarkBlockedFused2DNaive_1024(b *testing.B) { benchBlockedFused2D(b, 1024, true) }

// Plan-cache hit cost: repeated CachedPlan3D lookups of one shape (the
// per-call work a caching service pays instead of twiddle derivation).
func BenchmarkBlockedPlanCacheHit_64(b *testing.B) {
	defer ResetPlanCache()
	if _, err := CachedPlan3D[complex64](64, 64, 64); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CachedPlan3D[complex64](64, 64, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// Rotation cost in isolation (the data-movement phase of Fig. 3).
func BenchmarkRotate3D_64(b *testing.B) {
	const n = 64
	src := make([]complex64, n*n*n)
	dst := make([]complex64, n*n*n)
	b.SetBytes(int64(len(src) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Rotate3D(dst, src, n, n, n); err != nil {
			b.Fatal(err)
		}
	}
}
