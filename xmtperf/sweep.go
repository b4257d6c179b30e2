package main

// host-1d-sweep: one operation runs serial complex64 forward 1D
// transforms through the fft package's cached plans at every power of
// two from 64 to 8192, 2^22 points per size, in cache and contiguous.
// It covers every codelet leaf size and the composed path above 1024.
// Every timed sweep must be bit-identical to the first (untimed) one,
// and one more sweep after the measured loop is compared with a
// complex128 reference.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"xmtfft/internal/fft"
	"xmtfft/internal/stats"
)

const (
	sweepPoints = 1 << 22
	// hostTol bounds the RMS relative error of a complex64 transform
	// against the complex128 reference.
	hostTol = 1e-5
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median, because single set-ups of a millisecond spread
	// several-fold here.
	setupReps = 15
)

var sweepSizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}

func runSweep(c runCtx) (*outcome, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	x0 := seededComplex(c.seed, sweepPoints)
	work := make([]complex64, sweepPoints)

	var setups []float64
	plans := map[int]*fft.Plan[complex64]{}
	for i := 0; i < setupReps; i++ {
		fft.ResetPlanCache()
		runtime.GC()
		sp := c.rec.begin("fft", "setup", 0, 1)
		w := startWatch()
		for _, n := range sweepSizes {
			p, err := fft.CachedPlan[complex64](n)
			if err != nil {
				return nil, err
			}
			plans[n] = p
		}
		setups = append(setups, w.cpuSince().Seconds())
		c.rec.end(sp)
	}

	// sweep transforms every row of every size, timing each size;
	// sweepWall accumulates the wall time of all of them.
	var sweepWall time.Duration
	sweep := func(parent int, perSize func(n int, d time.Duration) error) error {
		for _, n := range sweepSizes {
			copy(work, x0)
			p := plans[n]
			sp := c.rec.begin("fft", fmt.Sprintf("Plan.Transform n=%d", n), parent, 1)
			w := startWatch()
			for r := 0; r < sweepPoints; r += n {
				if err := p.Transform(work[r:r+n], fft.Forward); err != nil {
					return err
				}
			}
			wd, d := w.since()
			sweepWall += wd
			c.rec.end(sp)
			if err := perSize(n, d); err != nil {
				return err
			}
		}
		return nil
	}
	want := map[int]uint64{}
	if err := sweep(0, func(n int, _ time.Duration) error {
		want[n] = outputHash(work)
		return nil
	}); err != nil {
		return nil, err
	}

	o := newOutcome()
	var lat, wall []float64
	perSize := map[int][]float64{}
	var leafPerOp uint64
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for time.Now().Before(deadline) || o.attempted == 0 {
		sp := c.rec.begin("bench", "op", 0, 1)
		var opTime time.Duration
		ok := true
		before := fft.CodeletLeafCalls()
		sweepWall = 0
		if err := sweep(sp, func(n int, d time.Duration) error {
			opTime += d
			perSize[n] = append(perSize[n], gflops(float64(sweepPoints/n)*stats.StandardFFTFlops(n), d))
			if outputHash(work) != want[n] {
				ok = false
			}
			return nil
		}); err != nil {
			return nil, err
		}
		leafPerOp = fft.CodeletLeafCalls() - before
		c.rec.end(sp)
		o.attempted++
		lat = append(lat, opTime.Seconds()*1e3)
		wall = append(wall, sweepWall.Seconds()*1e3)
		if !ok {
			o.failed++
			lat[len(lat)-1] = math.Inf(1)
			o.notef("FAIL sweep %d differs from the verified output", o.attempted)
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	// Verification: transform once more and compare each size with a
	// complex128 reference of the same rows.
	var acc errAcc
	ref := make([]complex128, sweepPoints)
	if err := sweep(0, func(n int, _ time.Duration) error {
		if outputHash(work) != want[n] {
			o.notef("FAIL verification at n=%d differs from the timed transforms", n)
			o.failAll(lat)
		}
		for i, v := range x0 {
			ref[i] = complex128(v)
		}
		rp, err := fft.NewPlan[complex128](n)
		if err != nil {
			return err
		}
		b, err := fft.NewBatchPlanOf(rp, sweepPoints/n, 1, n)
		if err != nil {
			return err
		}
		if err := b.Transform(ref, fft.Forward); err != nil {
			return err
		}
		acc.add(work, ref)
		return nil
	}); err != nil {
		return nil, err
	}
	e := acc.value()
	if e > hostTol {
		o.notef("FAIL rel_err %.3g exceeds %.0e", e, hostTol)
		o.failAll(lat)
	}

	var flops float64
	for _, n := range sweepSizes {
		flops += float64(sweepPoints/n) * stats.StandardFFTFlops(n)
		o.layer[fmt.Sprintf("fft.n%d_gflops", n)] = median(perSize[n])
	}
	p50 := median(lat)
	o.e2e["setup_s"] = median(setups)
	o.e2e["peak_rss_mb"] = rss
	o.setOpTimes(lat, flops)
	o.e2e["rel_err"] = e
	o.layer["fft.leaf_calls"] = float64(leafPerOp)
	o.notef("host-1d-sweep sizes=%v points/size=%d sweeps=%d p50_ms=%.3f wall_p50_ms=%.3f rel_err=%.3g",
		sweepSizes, sweepPoints, o.attempted, p50, median(wall), e)
	return o, nil
}
