package main

import (
	"hash/maphash"
	"math"
	"sort"
	"time"
	"unsafe"

	"xmtfft/internal/stats"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark treats it as measured rather than as one outlier.
const minTail = 10

// rank returns the 1-based nearest-rank position of quantile q in n
// sorted samples: the smallest rank r with r >= q*n.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile of samples (unsorted;
// the slice is sorted in place). It returns 0 for no samples.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[rank(len(samples), q)-1]
}

// tailOK reports whether at least minTail of n samples lie beyond the
// nearest-rank q-quantile.
func tailOK(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minTail
}

// median is percentile(samples, 0.5) on a copy, so callers keep order.
func median(samples []float64) float64 {
	return percentile(append([]float64(nil), samples...), 0.5)
}

// gflops converts flops done in d to GFLOPS.
func gflops(flops float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return flops / d.Seconds() / 1e9
}

// errAcc accumulates the RMS relative error of complex64 outputs
// against a complex128 reference: sqrt(Σ|got-ref|² / Σ|ref|²).
type errAcc struct{ num, den float64 }

func (e *errAcc) add(got []complex64, ref []complex128) {
	for i, r := range ref {
		d := complex128(got[i]) - r
		e.num += real(d)*real(d) + imag(d)*imag(d)
		e.den += real(r)*real(r) + imag(r)*imag(r)
	}
}

func (e errAcc) value() float64 {
	if e.den == 0 {
		return 0
	}
	return math.Sqrt(e.num / e.den)
}

// relErr is the RMS relative error of got against ref.
func relErr(got []complex64, ref []complex128) float64 {
	var e errAcc
	e.add(got, ref)
	return e.value()
}

// widen converts a complex64 array to complex128.
func widen(x []complex64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex128(v)
	}
	return out
}

// usefulEvents is the simulator's model-level operation count — loads,
// stores, FP, ALU and prefix-sum operations and threads — the same
// numerator as useful_events in BENCH_sim.json.
func usefulEvents(c stats.Counters) uint64 {
	return c.Loads + c.Stores + c.FPOps + c.ALUOps + c.PSOps + c.Threads
}

// outputHash fingerprints an output array so later operations can be
// checked bit-identical to a verified one without keeping a copy.
var hashSeed = maphash.MakeSeed()

func outputHash(x []complex64) uint64 {
	if len(x) == 0 {
		return maphash.Bytes(hashSeed, nil)
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&x[0])), len(x)*8)
	return maphash.Bytes(hashSeed, b)
}

// failAll marks every operation failed, when a check after the
// measured loop rejects the output all of them produced.
func (o *outcome) failAll(ms []float64) {
	o.failed = o.attempted
	for i := range ms {
		ms[i] = math.Inf(1)
	}
}

// setOpTimes fills the time-based end-to-end metrics of a workload
// that runs one operation at a time from each operation's time in ms
// (+Inf for a failed one) and the FFT flops of one operation.
func (o *outcome) setOpTimes(ms []float64, flopsPerOp float64) {
	var total float64
	var done int
	for _, v := range ms {
		if !math.IsInf(v, 1) {
			total += v
			done++
		}
	}
	o.e2e["rps"] = 0
	if done > 0 {
		o.e2e["rps"] = float64(done) / (total / 1e3)
	}
	o.e2e["host_gflops"] = o.e2e["rps"] * flopsPerOp / 1e9
	o.e2e["p50_ms"] = percentile(ms, 0.5)
}
