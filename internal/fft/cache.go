package fft

import (
	"reflect"
	"sync"
)

// Plan cache: services that issue many same-shape transforms pay the
// twiddle-table derivation once per (type, shape, options) key instead
// of per plan. All Cached* constructors are safe to call concurrently,
// and each returns the shared cached plan itself, which — like every
// plan — is safe for concurrent Transform calls.

var (
	planCacheMu sync.Mutex
	planCache   = map[planKey]any{}
)

// planKey identifies a cached plan. It is comparable, so a lookup
// builds no string.
type planKey struct {
	kind string
	elem reflect.Type
	dims [3]int
	cfg  planConfig
}

// cacheKey canonicalizes a plan identity: kind, element type, shape,
// and the resolved option set.
func cacheKey[T Complex](kind string, dims []int, opts []PlanOption) planKey {
	k := planKey{kind: kind, elem: reflect.TypeFor[T](), cfg: newPlanConfig(opts)}
	copy(k.dims[:], dims)
	return k
}

// cachedBuild returns the cached value for key, building it outside the
// lock on a miss. If two callers race to build the same key, the first
// store wins and both receive the same value.
func cachedBuild[V any](key planKey, build func() (V, error)) (V, error) {
	planCacheMu.Lock()
	if v, ok := planCache[key]; ok {
		planCacheMu.Unlock()
		return v.(V), nil
	}
	planCacheMu.Unlock()
	v, err := build()
	if err != nil {
		var zero V
		return zero, err
	}
	planCacheMu.Lock()
	defer planCacheMu.Unlock()
	if w, ok := planCache[key]; ok {
		return w.(V), nil
	}
	planCache[key] = v
	return v, nil
}

// ResetPlanCache drops every cached plan, releasing their twiddle
// tables; outstanding plans remain valid. Useful in tests and in
// long-running services after a workload shift.
func ResetPlanCache() {
	planCacheMu.Lock()
	defer planCacheMu.Unlock()
	planCache = map[planKey]any{}
}

// CachedPlan returns the shared cached 1D plan for n and opts.
func CachedPlan[T Complex](n int, opts ...PlanOption) (*Plan[T], error) {
	return cachedBuild(cacheKey[T]("1d", []int{n}, opts), func() (*Plan[T], error) {
		return NewPlan[T](n, opts...)
	})
}

// CachedPlan2D returns the shared cached 2D plan for (d0, d1) and
// opts.
func CachedPlan2D[T Complex](d0, d1 int, opts ...PlanOption) (*Plan2D[T], error) {
	return cachedBuild(cacheKey[T]("2d", []int{d0, d1}, opts), func() (*Plan2D[T], error) {
		return NewPlan2D[T](d0, d1, opts...)
	})
}

// CachedPlan3D returns the shared cached 3D plan for (d0, d1, d2) and
// opts.
func CachedPlan3D[T Complex](d0, d1, d2 int, opts ...PlanOption) (*Plan3D[T], error) {
	return cachedBuild(cacheKey[T]("3d", []int{d0, d1, d2}, opts), func() (*Plan3D[T], error) {
		return NewPlan3D[T](d0, d1, d2, opts...)
	})
}
