package fft

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestCachedPlanReturnsSharedPlan pins the 1D half of the cache
// contract: two lookups of one key return the same plan, for pass-loop
// and codelet plans alike, and it transforms like a fresh plan.
func TestCachedPlanReturnsSharedPlan(t *testing.T) {
	defer ResetPlanCache()
	ResetPlanCache()
	rng := rand.New(rand.NewSource(50))
	x := randVec128(rng, 64)
	fresh, _ := NewPlan[complex128](64)
	want := append([]complex128(nil), x...)
	fresh.Transform(want, Forward)
	for _, opts := range [][]PlanOption{{WithCodelets(false)}, nil} {
		a, err := CachedPlan[complex128](64, opts...)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CachedPlan[complex128](64, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("CachedPlan (%d options) returned two instances; want the shared plan", len(opts))
		}
		if a.UsesCodelets() != (opts == nil) {
			t.Errorf("cached plan (%d options) has leafN=%d", len(opts), a.LeafN())
		}
		got := append([]complex128(nil), x...)
		if err := a.Transform(got, Forward); err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > tol128 {
			t.Errorf("cached plan (%d options) differs from fresh plan by %g", len(opts), e)
		}
	}
}

func TestCachedPlanKeysDistinguishOptionsAndTypes(t *testing.T) {
	defer ResetPlanCache()
	ResetPlanCache()
	on, err := CachedPlan[complex128](64)
	if err != nil {
		t.Fatal(err)
	}
	off, err := CachedPlan[complex128](64, WithCodelets(false))
	if err != nil {
		t.Fatal(err)
	}
	if on.UsesCodelets() == off.UsesCodelets() {
		t.Error("codelet options collided in the cache")
	}
	// Same size, different element type must not collide.
	if _, err := CachedPlan[complex64](64); err != nil {
		t.Fatal(err)
	}
	// Invalid shapes surface the construction error.
	if _, err := CachedPlan[complex128](48); err == nil {
		t.Error("invalid size accepted")
	}
}

func TestCachedMultiDimPlans(t *testing.T) {
	defer ResetPlanCache()
	ResetPlanCache()
	rng := rand.New(rand.NewSource(51))
	x := randVec128(rng, 8*16)
	fresh, _ := NewPlan2D[complex128](8, 16)
	want := append([]complex128(nil), x...)
	fresh.Transform(want, Forward)

	p2a, err := CachedPlan2D[complex128](8, 16)
	if err != nil {
		t.Fatal(err)
	}
	p2b, err := CachedPlan2D[complex128](8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p2a != p2b {
		t.Error("CachedPlan2D did not return the shared instance")
	}
	got := append([]complex128(nil), x...)
	if err := p2a.Transform(got, Forward); err != nil {
		t.Fatal(err)
	}
	if e := relErr(got, want); e > tol128 {
		t.Errorf("cached 2D plan differs by %g", e)
	}

	p3, err := CachedPlan3D[complex128](4, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	pp3a, err := CachedPlan3D[complex128](4, 8, 16, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	pp3b, err := CachedPlan3D[complex128](4, 8, 16, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if pp3a != pp3b {
		t.Error("CachedPlan3D did not return the shared instance")
	}
	if pp3a == p3 || p3.r.workers != 1 || pp3a.r.workers != 4 {
		t.Errorf("worker counts aliased in the cache: default %d, WithWorkers(4) %d", p3.r.workers, pp3a.r.workers)
	}
	if _, err := CachedPlan3D[complex128](4, 8, 12); err == nil {
		t.Error("invalid 3D shape accepted")
	}
	ResetPlanCache()
	pp3c, err := CachedPlan3D[complex128](4, 8, 16, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if pp3c == pp3a {
		t.Error("ResetPlanCache did not drop the cached plan")
	}
}

// cacheHitBytes returns the bytes one call of hit allocates once the
// cache holds its plan: the per-call average over 100 calls, minimized
// over 5 trials to drop stray runtime allocations.
func cacheHitBytes(t *testing.T, hit func() error) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := hit(); err != nil {
		t.Fatal(err)
	}
	const calls = 100
	best := uint64(math.MaxUint64)
	for trial := 0; trial < 5; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if err := hit(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return best
}

// TestCachedMultiDimPlanHitCostIndependentOfSize pins the shared-plan
// contract: a cache hit hands out the cached plan itself, so it costs
// the same bytes at 64³ as at 16³, and at n=8192 as at n=64 — no
// array-sized scratch per call (a 16² complex64 array alone is 2 KiB).
// The slack absorbs the race detector, under which sync.Pool drops
// items at random.
func TestCachedMultiDimPlanHitCostIndependentOfSize(t *testing.T) {
	defer ResetPlanCache()
	ResetPlanCache()
	const slack = 128
	hit3D := func(n int) func() error {
		return func() error { _, err := CachedPlan3D[complex64](n, n, n); return err }
	}
	hit2D := func(n int) func() error {
		return func() error { _, err := CachedPlan2D[complex64](n, n); return err }
	}
	hit1D := func(n int) func() error {
		return func() error { _, err := CachedPlan[complex64](n); return err }
	}
	if small, large := cacheHitBytes(t, hit3D(16)), cacheHitBytes(t, hit3D(64)); large > small+slack {
		t.Errorf("CachedPlan3D hit allocates %d B at 16³ but %d B at 64³", small, large)
	}
	if small, large := cacheHitBytes(t, hit2D(16)), cacheHitBytes(t, hit2D(64)); large > small+slack {
		t.Errorf("CachedPlan2D hit allocates %d B at 16² but %d B at 64²", small, large)
	}
	if small, large := cacheHitBytes(t, hit1D(64)), cacheHitBytes(t, hit1D(8192)); large > small+slack {
		t.Errorf("CachedPlan hit allocates %d B at n=64 but %d B at n=8192", small, large)
	}
}

// TestCachedPlanHitAllocs bounds the allocations of a cache hit, which
// every 1D serve request makes. The key is a comparable struct, so a
// hit formats no string: one WithNorm option costs at most 1
// allocation for 1D and 2 for 2D, against 7 and 9 with a formatted key.
func TestCachedPlanHitAllocs(t *testing.T) {
	defer ResetPlanCache()
	ResetPlanCache()
	for _, tc := range []struct {
		name string
		max  float64
		hit  func() error
	}{
		{"1d", 1, func() error { _, err := CachedPlan[complex64](1024, WithNorm(NormUnitary)); return err }},
		{"2d", 2, func() error { _, err := CachedPlan2D[complex128](16, 16, WithNorm(NormUnitary)); return err }},
	} {
		if err := tc.hit(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { tc.hit() }); got > tc.max {
			t.Errorf("%s cache hit: %v allocations, want <= %v", tc.name, got, tc.max)
		}
	}
}

// TestCachedPlansConcurrent hammers the cache and the returned plans
// from many goroutines (run under -race in CI): concurrent lookups of
// the same key, concurrent Transforms on the shared cached plans at 4
// workers and at the inline default, all checked bit for bit against a
// private plan.
func TestCachedPlansConcurrent(t *testing.T) {
	defer ResetPlanCache()
	ResetPlanCache()
	rng := rand.New(rand.NewSource(52))
	d0, d1, d2 := 8, 8, 16
	x := randVec128(rng, d0*d1*d2)
	ref, err := NewPlan3D[complex128](d0, d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]complex128(nil), x...)
	if err := ref.Transform(want, Forward); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				for _, opts := range [][]PlanOption{{WithWorkers(4)}, nil} {
					p, err := CachedPlan3D[complex128](d0, d1, d2, opts...)
					if err != nil {
						t.Error(err)
						return
					}
					got := append([]complex128(nil), x...)
					if err := p.Transform(got, Forward); err != nil {
						t.Error(err)
						return
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("concurrent cached transform (%d options) differs at %d", len(opts), i)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
