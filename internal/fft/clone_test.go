package fft

import (
	"math/rand"
	"reflect"
	"testing"
)

// cloneHandledFields lists, per cloneable plan type, the fields its
// Clone method knowingly handles (copied, shared, or reallocated). If a
// plan type grows a field that is not listed here, the coverage test
// below fails — forcing whoever adds the field to decide how Clone
// treats it and then extend both Clone and this list.
var cloneHandledFields = map[reflect.Type][]string{
	reflect.TypeOf(Plan[complex64]{}): {"n", "radices", "norm", "tw", "scratch",
		// Codelet leaf: leafN/leafFwd/leafInv are immutable and shared;
		// leafBuf is per-call scratch and reallocated.
		"leafN", "leafFwd", "leafInv", "leafBuf"},
	reflect.TypeOf(BatchPlan[complex64]{}): {"plan", "HowMany", "Stride", "Dist", "gather"},
}

func TestCloneFieldCoverage(t *testing.T) {
	for tp, handled := range cloneHandledFields {
		known := map[string]bool{}
		for _, f := range handled {
			known[f] = true
		}
		for i := 0; i < tp.NumField(); i++ {
			name := tp.Field(i).Name
			if !known[name] {
				t.Errorf("%v has field %q that Clone does not handle; update Clone and cloneHandledFields", tp, name)
			}
			delete(known, name)
		}
		for name := range known {
			t.Errorf("cloneHandledFields lists %v field %q which no longer exists", tp, name)
		}
	}
}

func TestPlanCloneBehavioralEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	p, err := NewPlan[complex128](64, WithCodelets(false), WithNorm(NormUnitary))
	if err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if &c.scratch[0] == &p.scratch[0] {
		t.Error("clone shares scratch with the original")
	}
	if len(c.PassRadices()) != len(p.PassRadices()) || c.norm != p.norm || c.n != p.n {
		t.Error("clone lost configuration")
	}
	for _, dir := range []Direction{Forward, Inverse} {
		x := randVec128(rng, 64)
		want := append([]complex128(nil), x...)
		if err := p.Transform(want, dir); err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := c.Transform(got, dir); err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > tol128 {
			t.Errorf("dir %d: clone output differs from original by %g", dir, e)
		}
	}
}

func TestBatchPlanCloneBehavioralEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	bp, err := NewBatchPlan[complex128](8, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cb := bp.Clone()
	if cb.plan == bp.plan {
		t.Error("batch clone shares the row plan")
	}
	xb := randVec128(rng, bp.MinLen())
	wantb := append([]complex128(nil), xb...)
	bp.Transform(wantb, Forward)
	gotb := append([]complex128(nil), xb...)
	if err := cb.Transform(gotb, Forward); err != nil {
		t.Fatal(err)
	}
	if e := relErr(gotb, wantb); e > tol128 {
		t.Errorf("batch clone differs by %g", e)
	}
}
