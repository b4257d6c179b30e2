package fft

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
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
// on one shared plan from 8 goroutines (10 times each) and requires
// every output bit-identical to the naive-round oracle. Distinct inputs
// keep shared scratch from hiding as identical results; run under
// -race in CI.
func checkConcurrentTransforms[T Complex](t *testing.T, transform func([]T, Direction) error, r *rotor[T], inputs [][]T) {
	t.Helper()
	wants := make([][]T, len(inputs))
	for g, in := range inputs {
		wants[g] = append([]T(nil), in...)
		if err := naiveTransform(r, wants[g], make([]T, len(in)), Forward); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(inputs))
	for g := range inputs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				got := append([]T(nil), inputs[g]...)
				if err := transform(got, Forward); err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i] != wants[g][i] {
						errs <- fmt.Errorf("goroutine %d iter %d: element %d is %v, naive oracle %v", g, it, i, got[i], wants[g][i])
						return
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
		inputs := make([][]complex64, 8)
		for g := range inputs {
			inputs[g] = randVec64(rng, d0*d1*d2)
		}
		checkConcurrentTransforms(t, p.Transform, &p.r, inputs)
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
		inputs := make([][]complex128, 8)
		for g := range inputs {
			inputs[g] = randVec128(rng, d0*d1)
		}
		checkConcurrentTransforms(t, p.Transform, &p.r, inputs)
	}
}
