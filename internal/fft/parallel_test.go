package fft

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"xmtfft/internal/fft/codelet"
)

// TestMultiDimPlansForwardRadices is the regression test for the
// option-dropping bug: the multi-dimensional constructors once accepted
// PlanOptions but never forwarded them to their row plans. Every row
// plan must take the codelet setting, keep its normalization to itself
// (NormNone: the outer plan normalizes once over the whole array), and
// the outer plan must take the requested normalization.
func TestMultiDimPlansForwardRadices(t *testing.T) {
	want, _ := Radices(64) // the pass loop's decomposition: [8 8]
	opts := []PlanOption{WithCodelets(false), WithNorm(NormUnitary)}
	p2, err := NewPlan2D[complex128](64, 64, opts...)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := NewPlan3D[complex128](64, 64, 64, append(opts, WithWorkers(2))...)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*rotor[complex128]{"2D": &p2.r, "3D": &p3.r} {
		if r.norm != NormUnitary {
			t.Errorf("%s plan norm = %d, want NormUnitary", name, r.norm)
		}
		for round, pl := range r.rounds {
			if pl.UsesCodelets() {
				t.Errorf("%s round-%d row plan uses codelets despite WithCodelets(false)", name, round)
			}
			if got := pl.PassRadices(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s round-%d row plan radices = %v, want %v", name, round, got, want)
			}
			if pl.norm != NormNone {
				t.Errorf("%s round-%d row plan norm = %d, want NormNone", name, round, pl.norm)
			}
		}
	}
	if p3.r.workers != 2 {
		t.Errorf("3D plan workers = %d, want 2", p3.r.workers)
	}
	def, _ := NewPlan2D[complex128](64, 64)
	for round, pl := range def.r.rounds {
		if !pl.UsesCodelets() {
			t.Errorf("default 2D round-%d row plan skips the codelet leaf", round)
		}
	}

	// The pass-loop plan must still transform correctly.
	rng := rand.New(rand.NewSource(70))
	x := randVec128(rng, 64*64)
	ref, _ := NewPlan2D[complex128](64, 64, WithNorm(NormUnitary))
	wantX := append([]complex128(nil), x...)
	ref.Transform(wantX, Forward)
	got := append([]complex128(nil), x...)
	if err := p2.Transform(got, Forward); err != nil {
		t.Fatal(err)
	}
	if e := relErr(got, wantX); e > tol128 {
		t.Errorf("pass-loop 2D plan differs from the codelet plan by %g", e)
	}
}

// checkConcurrentTransforms transforms a distinct input per goroutine
// on one shared plan from 8 goroutines (10 times each, in both
// directions) and requires every output bit-identical to oracle, run
// serially beforehand. Distinct inputs keep shared scratch from hiding
// as identical results; run under -race in CI.
func checkConcurrentTransforms[T Complex](t *testing.T, label string, transform, oracle func([]T, Direction) error, inputs [][]T) {
	t.Helper()
	dirs := []Direction{Forward, Inverse}
	wants := make([][][]T, len(dirs))
	for d, dir := range dirs {
		for _, in := range inputs {
			want := append([]T(nil), in...)
			if err := oracle(want, dir); err != nil {
				t.Fatal(err)
			}
			wants[d] = append(wants[d], want)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(inputs))
	for g := range inputs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				for d, dir := range dirs {
					got := append([]T(nil), inputs[g]...)
					if err := transform(got, dir); err != nil {
						errs <- err
						return
					}
					for i, w := range wants[d][g] {
						if got[i] != w {
							errs <- fmt.Errorf("%s: goroutine %d iter %d dir %d: element %d is %v, oracle %v", label, g, it, dir, i, got[i], w)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// naiveOracle is the naive-round oracle of r as a transform function.
func naiveOracle[T Complex](r *rotor[T]) func([]T, Direction) error {
	return func(x []T, dir Direction) error { return naiveTransform(r, x, make([]T, len(x)), dir) }
}

// concurrentInputs returns 8 distinct random inputs of n elements.
func concurrentInputs[T Complex](rng *rand.Rand, n int) [][]T {
	inputs := make([][]T, 8)
	for g := range inputs {
		inputs[g] = make([]T, n)
		for i := range inputs[g] {
			inputs[g][i] = T(complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return inputs
}

// TestPlan3DConcurrentTransforms guards the merged plan's concurrency
// contract: one shared Plan3D, transformed from 8 goroutines at once,
// inline (1 worker) and split (4 workers).
func TestPlan3DConcurrentTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const d0, d1, d2 = 16, 8, 16
	for _, workers := range []int{1, 4} {
		p, err := NewPlan3D[complex64](d0, d1, d2, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		checkConcurrentTransforms(t, fmt.Sprintf("3D workers=%d", workers), p.Transform, naiveOracle(&p.r),
			concurrentInputs[complex64](rng, d0*d1*d2))
	}
}

// TestPlan2DConcurrentTransforms is the 2D analog.
func TestPlan2DConcurrentTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const d0, d1 = 64, 32
	for _, workers := range []int{1, 4} {
		p, err := NewPlan2D[complex128](d0, d1, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		checkConcurrentTransforms(t, fmt.Sprintf("2D workers=%d", workers), p.Transform, naiveOracle(&p.r),
			concurrentInputs[complex128](rng, d0*d1))
	}
}

// planShape is a 1D plan shape of the shared-plan tests. A non-zero
// leaf caps the codelet leaf at that size, so that a small n takes the
// composed path NewPlan gives only sizes above codelet.MaxN.
type planShape struct {
	n, leaf int
	opts    []PlanOption
}

// planShapes are the shapes: one codelet leaf covering the whole
// transform, prefix passes ahead of a leaf, and the pure pass loop
// (three passes, so the result ends in the scratch buffer and is copied
// back).
var planShapes = []planShape{
	{n: 64},
	{n: 4096, leaf: 1024},
	{n: 256, opts: []PlanOption{WithCodelets(false)}},
}

// shapePlan builds the plan of shape sh, with opts ahead of sh's own.
func shapePlan[T Complex](t *testing.T, sh planShape, opts ...PlanOption) *Plan[T] {
	t.Helper()
	maxLeaf := codelet.MaxN
	if sh.leaf > 0 {
		maxLeaf = sh.leaf
	}
	p, err := newPlan[T](sh.n, maxLeaf, append(opts, sh.opts...))
	if err != nil {
		t.Fatal(err)
	}
	if sh.leaf > 0 && (p.LeafN() != sh.leaf || p.NumPasses() == 0) {
		t.Fatalf("n=%d: leafN=%d passes=%d, want a composed %d-point leaf", sh.n, p.LeafN(), p.NumPasses(), sh.leaf)
	}
	return p
}

// batchLayouts are the (howMany, stride, dist) BatchPlan layouts of the
// shared-plan tests for n-point rows: two contiguous rows and two
// interleaved channels (the gather path).
func batchLayouts(n int) [][3]int { return [][3]int{{2, 1, n}, {2, 2, 1}} }

// checkSharedPlan runs checkConcurrentTransforms on one shared Plan of
// every plan shape against a private plan of the same shape run
// serially.
func checkSharedPlan[T Complex](t *testing.T, rng *rand.Rand) {
	for _, sh := range planShapes {
		shared, private := shapePlan[T](t, sh), shapePlan[T](t, sh)
		label := fmt.Sprintf("%T n=%d codelets=%v", T(0), sh.n, shared.UsesCodelets())
		checkConcurrentTransforms(t, label, shared.Transform, private.Transform, concurrentInputs[T](rng, sh.n))
	}
}

// checkSharedBatchPlan does the same for one shared BatchPlan per
// layout, each wrapping the one shared row plan of its shape.
func checkSharedBatchPlan[T Complex](t *testing.T, rng *rand.Rand) {
	for _, sh := range planShapes {
		shared := shapePlan[T](t, sh)
		for _, l := range batchLayouts(sh.n) {
			sharedB, err := NewBatchPlanOf(shared, l[0], l[1], l[2])
			if err != nil {
				t.Fatal(err)
			}
			privateB, err := NewBatchPlanOf(shapePlan[T](t, sh), l[0], l[1], l[2])
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%T n=%d codelets=%v batch %v", T(0), sh.n, shared.UsesCodelets(), l)
			checkConcurrentTransforms(t, label, sharedB.Transform, privateB.Transform,
				concurrentInputs[T](rng, sharedB.MinLen()))
		}
	}
}

// TestPlanCloneConcurrentSafe extends the contract to the 1D Plan: one
// shared plan serves 8 goroutines at once, with no clone per goroutine,
// bit for bit like a private plan run serially, for every plan shape
// and both element types.
func TestPlanCloneConcurrentSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	checkSharedPlan[complex64](t, rng)
	checkSharedPlan[complex128](t, rng)
}

// TestBatchPlanCloneConcurrentSafe is the BatchPlan analog, for
// contiguous rows and for interleaved channels (the gather path).
func TestBatchPlanCloneConcurrentSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	checkSharedBatchPlan[complex64](t, rng)
	checkSharedBatchPlan[complex128](t, rng)
}

// TestPlanCloneBehavioralEquivalence checks the execution context a
// call draws while another call holds the plan's idle one: the clone of
// the plan's per-call state. For every plan shape it must share no
// scratch with the held context and give bit-identical results in both
// directions.
func TestPlanCloneBehavioralEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, sh := range planShapes {
		p := shapePlan[complex128](t, sh, WithNorm(NormUnitary))
		// One finished call leaves its context idle; hold it as a
		// running call would.
		if err := p.Transform(make([]complex128, sh.n), Forward); err != nil {
			t.Fatal(err)
		}
		held := p.ctx.get()
		for _, dir := range []Direction{Forward, Inverse} {
			x := randVec128(rng, sh.n)
			want := append([]complex128(nil), x...)
			p.transform(want, dir, held)
			got := append([]complex128(nil), x...)
			if err := p.Transform(got, dir); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d dir %d: second context gives %v at %d, held context %v", sh.n, dir, got[i], i, want[i])
				}
			}
		}
		second := p.ctx.get()
		if second == held || &second.scratch[0] == &held.scratch[0] {
			t.Errorf("n=%d: second context shares scratch with the held one", sh.n)
		}
		if held.leafBuf != nil && &second.leafBuf[0] == &held.leafBuf[0] {
			t.Errorf("n=%d: second context shares the leaf buffer with the held one", sh.n)
		}
		p.ctx.put(second)
		p.ctx.put(held)
	}
}

// TestBatchPlanCloneBehavioralEquivalence is the BatchPlan analog: with
// the row plan's idle context held, a strided batch draws a second
// context, gathers its rows there and matches a private BatchPlan bit
// for bit, leaving the held context untouched.
func TestBatchPlanCloneBehavioralEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p, err := NewPlan[complex128](8)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBatchPlanOf(p, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	private, err := NewBatchPlan[complex128](8, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(make([]complex128, 8), Forward); err != nil {
		t.Fatal(err)
	}
	held := p.ctx.get()
	for _, dir := range []Direction{Forward, Inverse} {
		x := randVec128(rng, bp.MinLen())
		want := append([]complex128(nil), x...)
		if err := private.Transform(want, dir); err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := bp.Transform(got, dir); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dir %d: shared batch gives %v at %d, private %v", dir, got[i], i, want[i])
			}
		}
	}
	if held.gather != nil {
		t.Error("the strided batch gathered into the held context")
	}
	p.ctx.put(held)
}

// TestBluesteinConcurrentTransforms shares one fresh Bluestein plan
// between 8 goroutines: its chirps are built at construction and its
// inner power-of-two plan is itself shared-safe.
func TestBluesteinConcurrentTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	shared, err := NewBluestein[complex128](1000)
	if err != nil {
		t.Fatal(err)
	}
	private, err := NewBluestein[complex128](1000)
	if err != nil {
		t.Fatal(err)
	}
	checkConcurrentTransforms(t, "bluestein n=1000", shared.Transform, private.Transform, concurrentInputs[complex128](rng, 1000))
}

// TestPlanTransformsAllocateNothing pins the checkout's steady state:
// once a plan's execution context exists, Plan.Transform and
// BatchPlan.Transform (contiguous and strided) allocate nothing per
// call — no per-call context, closure or gather buffer.
func TestPlanTransformsAllocateNothing(t *testing.T) {
	for _, sh := range planShapes {
		p := shapePlan[complex64](t, sh)
		x := make([]complex64, sh.n)
		if a := testing.AllocsPerRun(20, func() { p.Transform(x, Forward) }); a != 0 {
			t.Errorf("n=%d codelets=%v: Plan.Transform allocates %v times per call", sh.n, p.UsesCodelets(), a)
		}
		for _, l := range batchLayouts(sh.n) {
			bp, err := NewBatchPlanOf(p, l[0], l[1], l[2])
			if err != nil {
				t.Fatal(err)
			}
			xb := make([]complex64, bp.MinLen())
			if a := testing.AllocsPerRun(20, func() { bp.Transform(xb, Forward) }); a != 0 {
				t.Errorf("n=%d codelets=%v batch %v: BatchPlan.Transform allocates %v times per call", sh.n, p.UsesCodelets(), l, a)
			}
		}
	}
}
