package fft

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"xmtfft/internal/fft/codelet"
)

// ord32 maps a float32 onto a monotone integer scale so that the
// distance between two finite values counts representable floats
// between them (±0 coincide).
func ord32(f float32) int64 {
	u := math.Float32bits(f)
	if u&(1<<31) != 0 {
		return -int64(u &^ (1 << 31))
	}
	return int64(u)
}

func ord64(f float64) int64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return -int64(u &^ (1 << 63))
	}
	return int64(u)
}

func absDiff(a, b int64) int64 {
	if a < b {
		return b - a
	}
	return a - b
}

// maxULP returns the largest component-wise ULP distance between two
// complex vectors of the same element type.
func maxULP[T Complex](got, want []T) int64 {
	var m int64
	for i := range got {
		switch g := any(got[i]).(type) {
		case complex64:
			w := any(want[i]).(complex64)
			m = max(m, absDiff(ord32(real(g)), ord32(real(w))))
			m = max(m, absDiff(ord32(imag(g)), ord32(imag(w))))
		case complex128:
			w := any(want[i]).(complex128)
			m = max(m, absDiff(ord64(real(g)), ord64(real(w))))
			m = max(m, absDiff(ord64(imag(g)), ord64(imag(w))))
		}
	}
	return m
}

// codeletDiffSizes is every covered size plus composed sizes that run
// generic prefix passes ahead of the leaf (radix 2, 4 and 8 prefixes).
func codeletDiffSizes() []int {
	return append(codelet.Sizes(), 2*codelet.MaxN, 4*codelet.MaxN, 8*codelet.MaxN)
}

// At fully covered sizes the codelet kernels mirror the generic pass
// algebra operation for operation with identically rounded constants,
// with one deliberate exception: the kernels multiply by exact ±1 and
// ±i at the special angles, while the pass loop's tables carry the
// ~1e-16 off-axis dust of cis(π) = (-1, 1.2e-16) and cis(π/2) =
// (6.1e-17, 1). For complex64 that perturbation is far below half an
// ULP, so the paths agree essentially bit for bit; for complex128 it
// surfaces as a few hundred ULP of benign divergence (the folded side is
// the more accurate one — TestCodeletVsDFTOracle anchors absolute
// correctness). That complex128 bound was set on the sizes up to 1024;
// above, a component near zero has read 8192 ULP from a normwise
// difference of about 1e-17, so complex128 sizes above 1024 — and
// composed sizes beyond coverage, which factor differently (e.g. 32768
// runs [8 8 8 8 8] generically but [4]+leaf[8 8 8 8 2] composed) — are
// held to the library's relative-error tolerance instead.
// TestPinnedOutputs holds every covered size to its exact bits.
func codeletMaxULP[T Complex](n int) (bound int64, ok bool) {
	var zero T
	if _, c64 := any(zero).(complex64); c64 {
		return 4, n <= codelet.MaxN
	}
	return 4096, n <= 1024 // observed ≤512; ~9e-13 relative, well under tol128
}

func relTol[T Complex]() float64 {
	var zero T
	if _, ok := any(zero).(complex64); ok {
		return tol64
	}
	return tol128
}

func diffOne[T Complex](t *testing.T, n int, dir Direction, norm Normalization, x []T) {
	t.Helper()
	on, err := NewPlan[T](n, WithNorm(norm))
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewPlan[T](n, WithNorm(norm), WithCodelets(false))
	if err != nil {
		t.Fatal(err)
	}
	if n <= codelet.MaxN && on.LeafN() != n {
		t.Fatalf("n=%d: leafN=%d, want full codelet coverage", n, on.LeafN())
	}
	if n > codelet.MaxN && (on.LeafN() != codelet.MaxN || on.NumPasses() == 0) {
		t.Fatalf("n=%d: leafN=%d passes=%d, want composed %d-leaf plan",
			n, on.LeafN(), on.NumPasses(), codelet.MaxN)
	}
	if off.UsesCodelets() {
		t.Fatalf("n=%d: WithCodelets(false) plan still has a leaf", n)
	}
	got := append([]T(nil), x...)
	want := append([]T(nil), x...)
	if err := on.Transform(got, dir); err != nil {
		t.Fatal(err)
	}
	if err := off.Transform(want, dir); err != nil {
		t.Fatal(err)
	}
	if bound, ok := codeletMaxULP[T](n); ok {
		if u := maxULP(got, want); u > bound {
			t.Errorf("%T n=%d dir=%d norm=%d: codelet output differs from generic by %d ULP", got[0], n, dir, norm, u)
		}
	} else if e := relErr(got, want); e > relTol[T]() {
		t.Errorf("%T n=%d dir=%d norm=%d: codelet output differs from generic by %g", got[0], n, dir, norm, e)
	}
}

// TestCodeletDifferential compares the codelet path against the generic
// pass loop at every covered size (and composed sizes beyond coverage),
// in both directions, under every normalization.
func TestCodeletDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	norms := []Normalization{NormNone, NormByN, NormUnitary}
	for _, n := range codeletDiffSizes() {
		x64 := randVec64(rng, n)
		x128 := randVec128(rng, n)
		for _, dir := range []Direction{Forward, Inverse} {
			for _, norm := range norms {
				diffOne(t, n, dir, norm, x64)
				diffOne(t, n, dir, norm, x128)
			}
		}
	}
}

// TestCodeletVsDFTOracle anchors the codelet path to the O(N²)
// definition directly (the differential test alone would pass if both
// paths shared a bug): every bin up to n = 2048, and beyond, where the
// whole definition takes seconds, bins 0, 1, n/2 and n-1 and 64 drawn at
// random.
func TestCodeletVsDFTOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	// Every covered size plus one composed size.
	for _, n := range append(codelet.Sizes(), 2*codelet.MaxN) {
		x := randVec128(rng, n)
		var bins []int
		if n <= 2048 {
			for k := range n {
				bins = append(bins, k)
			}
		} else {
			bins = append(bins, 0, 1, n/2, n-1)
			for range 64 {
				bins = append(bins, rng.Intn(n))
			}
		}
		for _, dir := range []Direction{Forward, Inverse} {
			p, err := NewPlan[complex128](n, WithNorm(NormNone))
			if err != nil {
				t.Fatal(err)
			}
			if !p.UsesCodelets() {
				t.Fatalf("n=%d: plan did not take the codelet path", n)
			}
			out := append([]complex128(nil), x...)
			if err := p.Transform(out, dir); err != nil {
				t.Fatal(err)
			}
			got := make([]complex128, len(bins))
			want := make([]complex128, len(bins))
			for i, k := range bins {
				got[i], want[i] = out[k], dftBin(x, k, dir)
			}
			if e := relErr(got, want); e > tol128 {
				t.Errorf("n=%d dir=%d: codelet differs from DFT oracle by %g", n, dir, e)
			}
		}
	}
}

// dftBin is bin k of DFT(x, dir), summed as DFT sums it.
func dftBin(x []complex128, k int, dir Direction) complex128 {
	n := len(x)
	var sum complex128
	for j, v := range x {
		s, c := math.Sincos(float64(dir) * 2 * math.Pi * float64(k*j%n) / float64(n))
		sum += complex(c, s) * v
	}
	return sum
}

// TestWithCodeletsOffBitIdentical pins the off switch to the legacy
// path: a WithCodelets(false) plan and a plan built directly on the
// pass loop with the same radices must agree bit for bit.
func TestWithCodeletsOffBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, n := range []int{8, 64, 256, 1024, 2048} {
		rs, err := Radices(n)
		if err != nil {
			t.Fatal(err)
		}
		off, err := NewPlan[complex64](n, WithCodelets(false))
		if err != nil {
			t.Fatal(err)
		}
		legacy := planWithRadices[complex64](n, rs)
		if off.UsesCodelets() || legacy.UsesCodelets() {
			t.Fatalf("n=%d: expected both plans on the generic pass loop", n)
		}
		x := randVec64(rng, n)
		a := append([]complex64(nil), x...)
		b := append([]complex64(nil), x...)
		if err := off.Transform(a, Forward); err != nil {
			t.Fatal(err)
		}
		if err := legacy.Transform(b, Forward); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: WithCodelets(false) diverges from legacy path at %d: %v != %v", n, i, a[i], b[i])
			}
		}
	}
}

// TestCodeletPlanShape checks leaf resolution across the option space:
// full coverage at covered sizes, prefix+leaf beyond, re-enabled by a
// later WithCodelets(true), and generic fallback for named
// complex types the generator does not emit for.
func TestCodeletPlanShape(t *testing.T) {
	covered, _ := NewPlan[complex64](512)
	if covered.LeafN() != 512 || covered.NumPasses() != 0 {
		t.Errorf("512: leafN=%d passes=%d, want 512/0", covered.LeafN(), covered.NumPasses())
	}
	composed, _ := NewPlan[complex64](8 * codelet.MaxN)
	if composed.LeafN() != codelet.MaxN || len(composed.PassRadices()) != 1 || composed.PassRadices()[0] != 8 {
		t.Errorf("8·MaxN: leafN=%d radices=%v, want %d/[8]", composed.LeafN(), composed.PassRadices(), codelet.MaxN)
	}
	offOnAgain, _ := NewPlan[complex64](64, WithCodelets(false), WithCodelets(true))
	if !offOnAgain.UsesCodelets() {
		t.Error("WithCodelets(true) after false did not re-enable codelets")
	}

	type named complex64
	fallback, err := NewPlan[named](64)
	if err != nil {
		t.Fatal(err)
	}
	if fallback.UsesCodelets() {
		t.Error("named complex type matched a generated kernel; want generic fallback")
	}
	rng := rand.New(rand.NewSource(93))
	x := make([]named, 64)
	for i := range x {
		x[i] = named(complex(float32(rng.NormFloat64()), float32(rng.NormFloat64())))
	}
	want := make([]complex64, 64)
	for i := range x {
		want[i] = complex64(x[i])
	}
	ref, _ := NewPlan[complex64](64, WithCodelets(false))
	if err := ref.Transform(want, Forward); err != nil {
		t.Fatal(err)
	}
	if err := fallback.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	got := make([]complex64, 64)
	for i := range x {
		got[i] = complex64(x[i])
	}
	if e := relErr(got, want); e > tol64 {
		t.Errorf("named-type fallback differs from reference by %g", e)
	}
}

// TestCodeletLeafCallCounter checks the observability counter: one
// bump per fully-covered transform, one per strided sub-transform on
// the composed path.
func TestCodeletLeafCallCounter(t *testing.T) {
	p, err := NewPlan[complex64](256)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex64, 256)
	before := CodeletLeafCalls()
	if err := p.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	if got := CodeletLeafCalls() - before; got != 1 {
		t.Errorf("covered transform bumped leaf counter by %d, want 1", got)
	}

	n := 4 * codelet.MaxN
	c, err := NewPlan[complex64](n)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]complex64, n)
	before = CodeletLeafCalls()
	if err := c.Transform(y, Forward); err != nil {
		t.Fatal(err)
	}
	if got, want := CodeletLeafCalls()-before, uint64(n/codelet.MaxN); got != want {
		t.Errorf("composed transform bumped leaf counter by %d, want %d", got, want)
	}
}

// TestCacheKeyCoversEveryOption is the option-aliasing regression: any
// two plans differing in a single plan-affecting option must map to
// distinct cache keys, and a behavioral probe confirms the codelet
// toggle in particular cannot alias.
func TestCacheKeyCoversEveryOption(t *testing.T) {
	defer ResetPlanCache()
	ResetPlanCache()
	variants := map[string][]PlanOption{
		"default":    nil,
		"norm":       {WithNorm(NormUnitary)},
		"normnone":   {WithNorm(NormNone)},
		"codeletoff": {WithCodelets(false)},
		"workers2":   {WithWorkers(2)},
		"workers4":   {WithWorkers(4)},
	}
	keys := map[string]planKey{}
	for name, opts := range variants {
		k := cacheKey[complex64]("3d", []int{8, 8, 8}, opts)
		for prev, pk := range keys {
			if pk == k {
				t.Errorf("option sets %q and %q produce the same cache key %+v", name, prev, k)
			}
		}
		keys[name] = k
	}
	// Element type is part of the key too, and a non-positive worker
	// count keys as the GOMAXPROCS it resolves to.
	if cacheKey[complex64]("1d", []int{64}, nil) == cacheKey[complex128]("1d", []int{64}, nil) {
		t.Error("element type does not affect the cache key")
	}
	if cacheKey[complex64]("2d", []int{8, 8}, []PlanOption{WithWorkers(0)}) !=
		cacheKey[complex64]("2d", []int{8, 8}, []PlanOption{WithWorkers(runtime.GOMAXPROCS(0))}) {
		t.Error("WithWorkers(0) keys differently from GOMAXPROCS workers")
	}
	// Behavioral check: fetching codelets-off after default must not
	// hand back the cached codelet plan.
	on, err := CachedPlan[complex64](64)
	if err != nil {
		t.Fatal(err)
	}
	off, err := CachedPlan[complex64](64, WithCodelets(false))
	if err != nil {
		t.Fatal(err)
	}
	if !on.UsesCodelets() || off.UsesCodelets() {
		t.Errorf("cached plans aliased across the codelet toggle: on=%v off=%v",
			on.UsesCodelets(), off.UsesCodelets())
	}
}

// TestCodeletRegistry sanity-checks the generated registry surface.
func TestCodeletRegistry(t *testing.T) {
	sizes := codelet.Sizes()
	if len(sizes) == 0 || sizes[0] != codelet.MinN || sizes[len(sizes)-1] != codelet.MaxN {
		t.Fatalf("registry sizes %v disagree with MinN=%d MaxN=%d", sizes, codelet.MinN, codelet.MaxN)
	}
	for _, n := range sizes {
		if !codelet.Covered(n) {
			t.Errorf("Covered(%d) = false for a listed size", n)
		}
		if codelet.Kernel64(n, false) == nil || codelet.Kernel64(n, true) == nil ||
			codelet.Kernel128(n, false) == nil || codelet.Kernel128(n, true) == nil {
			t.Errorf("registry missing a kernel for n=%d", n)
		}
	}
	for _, n := range []int{0, 1, 4, 3 * codelet.MinN, 2 * codelet.MaxN} {
		if codelet.Covered(n) {
			t.Errorf("Covered(%d) = true for an uncovered size", n)
		}
		if codelet.Kernel64(n, false) != nil || codelet.Kernel128(n, true) != nil {
			t.Errorf("registry returned a kernel for uncovered n=%d", n)
		}
	}
}

// FuzzCodeletDifferential feeds arbitrary byte-derived inputs through
// both paths at a fuzzer-chosen covered size and requires ULP-level
// agreement.
func FuzzCodeletDifferential(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(0))
	f.Add(int64(-7), uint8(7))
	sizes := codeletDiffSizes()
	f.Fuzz(func(t *testing.T, seed int64, pick uint8) {
		n := sizes[int(pick)%len(sizes)]
		rng := rand.New(rand.NewSource(seed))
		x := randVec64(rng, n)
		diffOne(t, n, Forward, NormByN, x)
		diffOne(t, n, Inverse, NormByN, x)
	})
}

// BenchmarkTransformCodelets times a plan's forward transform at every
// power of two from 8 to 8192 for both element types, with the codelet
// leaves on and off (the generic pass loop). The on cases are also the
// same-API benchmark to run against another build of the package
// (go test -c, alternating runs).
func BenchmarkTransformCodelets(b *testing.B) {
	for n := 8; n <= 8192; n *= 2 {
		for _, on := range []bool{true, false} {
			name := fmt.Sprintf("n=%d/%s", n, map[bool]string{true: "on", false: "off"}[on])
			b.Run("c64/"+name, func(b *testing.B) { benchPlan[complex64](b, n, WithCodelets(on)) })
			b.Run("c128/"+name, func(b *testing.B) { benchPlan[complex128](b, n, WithCodelets(on)) })
		}
	}
}

func benchPlan[T Complex](b *testing.B, n int, opts ...PlanOption) {
	p, err := NewPlan[T](n, opts...)
	if err != nil {
		b.Fatal(err)
	}
	benchTransform(b, n, func(x []T) error { return p.Transform(x, Forward) })
}
