package fft

// Soak test of the plan cache's concurrency contract, which the serving
// layer (internal/serve) now depends on for every request: many
// goroutines resolving Cached* plans of overlapping shapes, transforming
// on them, and racing ResetPlanCache against the lot. The contract under
// -race: no data race, no torn cache state, and every transform —
// whether its plan came from a fresh or about-to-be-dropped cache entry —
// remains bit-identical to a reference computed on a private plan.

import (
	"fmt"
	"sync"
	"testing"
)

func TestPlanCacheSoakConcurrentWithResets(t *testing.T) {
	defer ResetPlanCache()
	ResetPlanCache()

	sizes := []int{8, 16, 32, 64}

	// Reference outputs on private plans, keyed by size, computed once.
	input := func(n, salt int) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(float64((i*salt)%7)-3, float64((i+salt)%5)-2)
		}
		return x
	}
	ref := map[int][]complex128{}
	for _, n := range sizes {
		p, err := NewPlan[complex128](n)
		if err != nil {
			t.Fatal(err)
		}
		x := input(n, n)
		if err := p.Transform(x, Forward); err != nil {
			t.Fatal(err)
		}
		ref[n] = x
	}
	ref2D := func() []complex128 {
		p, err := NewPlan2D[complex128](8, 16)
		if err != nil {
			t.Fatal(err)
		}
		x := input(8*16, 128)
		if err := p.Transform(x, Forward); err != nil {
			t.Fatal(err)
		}
		return x
	}()

	const (
		workers = 8
		iters   = 150
	)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 5 {
				case 0, 1, 2: // 1D through the cache
					n := sizes[(w*31+i)%len(sizes)]
					p, err := CachedPlan[complex128](n)
					if err != nil {
						errs <- err
						return
					}
					x := input(n, n)
					if err := p.Transform(x, Forward); err != nil {
						errs <- err
						return
					}
					for j := range x {
						if x[j] != ref[n][j] {
							errs <- fmt.Errorf("worker %d iter %d: cached plan n=%d diverged at %d: %v vs %v",
								w, i, n, j, x[j], ref[n][j])
							return
						}
					}
				case 3: // 2D through the cache
					p, err := CachedPlan2D[complex128](8, 16)
					if err != nil {
						errs <- err
						return
					}
					x := input(8*16, 128)
					if err := p.Transform(x, Forward); err != nil {
						errs <- err
						return
					}
					for j := range x {
						if x[j] != ref2D[j] {
							errs <- fmt.Errorf("worker %d iter %d: cached 2D plan diverged at %d", w, i, j)
							return
						}
					}
				case 4: // the reset racing everyone else
					ResetPlanCache()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanCacheResetLeavesOutstandingPlansValid pins the documented
// ResetPlanCache semantics: plans handed out before the reset keep
// working (their tables are theirs), and the next Cached* call after a
// reset builds a fresh plan rather than resurrecting the old one.
func TestPlanCacheResetLeavesOutstandingPlansValid(t *testing.T) {
	defer ResetPlanCache()
	ResetPlanCache()

	p1, err := CachedPlan[complex64](32)
	if err != nil {
		t.Fatal(err)
	}
	ResetPlanCache()
	x := make([]complex64, 32)
	x[1] = 1
	if err := p1.Transform(x, Forward); err != nil {
		t.Fatalf("outstanding plan broken by reset: %v", err)
	}
	p2, err := CachedPlan[complex64](32)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]complex64, 32)
	y[1] = 1
	if err := p2.Transform(y, Forward); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("pre- and post-reset plans disagree at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

// TestCachedParallelPlansSoakWithResets exercises the shared-instance
// half of the cache contract: CachedPlan2D returns one instance, here
// splitting its rounds across 2 workers, safe for concurrent Transform,
// while ResetPlanCache churns the cache underneath concurrent
// resolution of the same key.
func TestCachedParallelPlansSoakWithResets(t *testing.T) {
	defer ResetPlanCache()
	ResetPlanCache()

	const d0, d1 = 8, 8
	want := func() []complex64 {
		p, err := NewPlan2D[complex64](d0, d1)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]complex64, d0*d1)
		for i := range x {
			x[i] = complex(float32(i%9)-4, float32(i%4))
		}
		if err := p.Transform(x, Forward); err != nil {
			t.Fatal(err)
		}
		return x
	}()

	const workers = 6
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if w == 0 && i%7 == 0 {
					ResetPlanCache()
					continue
				}
				p, err := CachedPlan2D[complex64](d0, d1, WithWorkers(2))
				if err != nil {
					errs <- err
					return
				}
				x := make([]complex64, d0*d1)
				for j := range x {
					x[j] = complex(float32(j%9)-4, float32(j%4))
				}
				if err := p.Transform(x, Forward); err != nil {
					errs <- err
					return
				}
				for j := range x {
					if x[j] != want[j] {
						errs <- fmt.Errorf("worker %d iter %d: parallel cached plan diverged at %d", w, i, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
