package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// dft2D computes a reference 2D DFT directly: row DFTs then column DFTs.
func dft2D(x []complex128, d0, d1 int) []complex128 {
	tmp := make([]complex128, d0*d1)
	for i := 0; i < d0; i++ {
		row := DFT(x[i*d1:(i+1)*d1], Forward)
		copy(tmp[i*d1:], row)
	}
	out := make([]complex128, d0*d1)
	col := make([]complex128, d0)
	for j := 0; j < d1; j++ {
		for i := 0; i < d0; i++ {
			col[i] = tmp[i*d1+j]
		}
		fc := DFT(col, Forward)
		for i := 0; i < d0; i++ {
			out[i*d1+j] = fc[i]
		}
	}
	return out
}

// dft3D computes a reference 3D DFT directly along each axis.
func dft3D(x []complex128, d0, d1, d2 int) []complex128 {
	out := append([]complex128(nil), x...)
	// Axis 2 (contiguous rows).
	for r := 0; r < d0*d1; r++ {
		copy(out[r*d2:(r+1)*d2], DFT(out[r*d2:(r+1)*d2], Forward))
	}
	// Axis 1.
	vec := make([]complex128, d1)
	for i := 0; i < d0; i++ {
		for k := 0; k < d2; k++ {
			for j := 0; j < d1; j++ {
				vec[j] = out[(i*d1+j)*d2+k]
			}
			fv := DFT(vec, Forward)
			for j := 0; j < d1; j++ {
				out[(i*d1+j)*d2+k] = fv[j]
			}
		}
	}
	// Axis 0.
	vec0 := make([]complex128, d0)
	for j := 0; j < d1; j++ {
		for k := 0; k < d2; k++ {
			for i := 0; i < d0; i++ {
				vec0[i] = out[(i*d1+j)*d2+k]
			}
			fv := DFT(vec0, Forward)
			for i := 0; i < d0; i++ {
				out[(i*d1+j)*d2+k] = fv[i]
			}
		}
	}
	return out
}

func TestPlan2DMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dims := range [][2]int{{4, 4}, {8, 16}, {16, 8}, {2, 32}} {
		d0, d1 := dims[0], dims[1]
		x := randVec128(rng, d0*d1)
		want := dft2D(x, d0, d1)
		p, err := NewPlan2D[complex128](d0, d1, WithNorm(NormNone))
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := p.Transform(got, Forward); err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > tol128 {
			t.Errorf("%dx%d: error %g", d0, d1, e)
		}
	}
}

func TestPlan2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p, err := NewPlan2D[complex64](32, 64)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec64(rng, 32*64)
	orig := append([]complex64(nil), x...)
	if err := p.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(x, Inverse); err != nil {
		t.Fatal(err)
	}
	if e := relErr(x, orig); e > tol64 {
		t.Errorf("2D round trip error %g", e)
	}
}

func TestPlan3DMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, dims := range [][3]int{{4, 4, 4}, {2, 4, 8}, {8, 4, 2}, {8, 8, 8}} {
		d0, d1, d2 := dims[0], dims[1], dims[2]
		x := randVec128(rng, d0*d1*d2)
		want := dft3D(x, d0, d1, d2)
		p, err := NewPlan3D[complex128](d0, d1, d2, WithNorm(NormNone))
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := p.Transform(got, Forward); err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > tol128 {
			t.Errorf("%v: error %g", dims, e)
		}
	}
}

func TestPlan3DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p, err := NewPlan3D[complex64](16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec64(rng, 16*16*16)
	orig := append([]complex64(nil), x...)
	if err := p.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(x, Inverse); err != nil {
		t.Fatal(err)
	}
	if e := relErr(x, orig); e > tol64 {
		t.Errorf("3D round trip error %g", e)
	}
}

func TestPlan3DImpulse(t *testing.T) {
	// A delta at the origin transforms to all ones.
	p, err := NewPlan3D[complex128](4, 8, 2, WithNorm(NormNone))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 4*8*2)
	x[0] = 1
	if err := p.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("X[%d] = %v, want 1", i, v)
		}
	}
}

func TestRotate3DIsPurePermutation(t *testing.T) {
	d0, d1, d2 := 3, 4, 5 // rotation itself need not be power of two
	src := make([]complex128, d0*d1*d2)
	for i := range src {
		src[i] = complex(float64(i), 0)
	}
	dst := make([]complex128, len(src))
	if err := Rotate3D(dst, src, d0, d1, d2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			for k := 0; k < d2; k++ {
				if dst[(k*d0+i)*d1+j] != src[(i*d1+j)*d2+k] {
					t.Fatalf("rotation wrong at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	// Three rotations restore the original.
	a := make([]complex128, len(src))
	b := make([]complex128, len(src))
	Rotate3D(a, src, d0, d1, d2)
	Rotate3D(b, a, d2, d0, d1)
	Rotate3D(a, b, d1, d2, d0)
	for i := range a {
		if a[i] != src[i] {
			t.Fatal("three rotations did not restore the array")
		}
	}
}

func TestUnfusedRotationEquivalence(t *testing.T) {
	// Rows-then-rotate performed as two separate steps must agree with
	// the fused naive round (the ablation of §VI-B's fusion).
	rng := rand.New(rand.NewSource(24))
	d0, d1, d2 := 4, 8, 16
	x := randVec128(rng, d0*d1*d2)
	plan, _ := NewPlan[complex128](d2, WithNorm(NormNone))

	fused := make([]complex128, len(x))
	if err := rowsAndRotate(fused, x, d0*d1, d2, plan, Forward); err != nil {
		t.Fatal(err)
	}

	unfused := append([]complex128(nil), x...)
	for r := 0; r < d0*d1; r++ {
		if err := plan.Transform(unfused[r*d2:(r+1)*d2], Forward); err != nil {
			t.Fatal(err)
		}
	}
	rot := make([]complex128, len(x))
	Rotate3D(rot, unfused, d0, d1, d2)
	if e := relErr(fused, rot); e > tol128 {
		t.Errorf("fused vs unfused differ: %g", e)
	}
}

func TestTranspose2D(t *testing.T) {
	src := []complex128{1, 2, 3, 4, 5, 6}
	dst := make([]complex128, 6)
	if err := Transpose2D(dst, src, 2, 3); err != nil {
		t.Fatal(err)
	}
	want := []complex128{1, 4, 2, 5, 3, 6}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("transpose = %v, want %v", dst, want)
		}
	}
	if err := Transpose2D(dst, src, 4, 3); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestParallel3DMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	d0, d1, d2 := 16, 8, 32
	x := randVec128(rng, d0*d1*d2)
	serial := append([]complex128(nil), x...)
	ps, err := NewPlan3D[complex128](d0, d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Transform(serial, Forward); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		par := append([]complex128(nil), x...)
		pp, err := NewPlan3D[complex128](d0, d1, d2, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := pp.Transform(par, Forward); err != nil {
			t.Fatal(err)
		}
		if e := relErr(par, serial); e > tol128 {
			t.Errorf("workers=%d: parallel differs from serial by %g", workers, e)
		}
	}
}

func TestNewPlanDimensionErrors(t *testing.T) {
	if _, err := NewPlan2D[complex128](3, 8); err == nil {
		t.Error("2D non-power-of-two accepted")
	}
	if _, err := NewPlan3D[complex128](8, 8, 9); err == nil {
		t.Error("3D non-power-of-two accepted")
	}
	p3, _ := NewPlan3D[complex128](4, 4, 4)
	if err := p3.Transform(make([]complex128, 10), Forward); err == nil {
		t.Error("bad length accepted")
	}
	p2, _ := NewPlan2D[complex128](4, 4)
	if err := p2.Transform(make([]complex128, 10), Forward); err == nil {
		t.Error("bad length accepted")
	}
}

func TestConvolveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	n := 32
	a := randVec128(rng, n)
	b := randVec128(rng, n)
	got, err := Convolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	for i := 0; i < n; i++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += a[j] * b[(i-j+n)%n]
		}
		want[i] = s
	}
	if e := relErr(got, want); e > 1e-9 {
		t.Errorf("circular convolution error %g", e)
	}
}

func TestConvolveLinearKnown(t *testing.T) {
	a := []complex128{1, 2, 3}
	b := []complex128{4, 5}
	got, err := ConvolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{4, 13, 22, 15}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("linear conv = %v, want %v", got, want)
		}
	}
	if _, err := ConvolveLinear([]complex128{}, b); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Convolve(a, b); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestConvolve2DIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	d0, d1 := 8, 8
	img := randVec128(rng, d0*d1)
	kernel := make([]complex128, d0*d1)
	kernel[0] = 1 // delta kernel: convolution is identity
	got, err := Convolve2D(img, kernel, d0, d1)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(got, img); e > 1e-9 {
		t.Errorf("delta-kernel convolution changed image: %g", e)
	}
	if _, err := Convolve2D(img, kernel, 3, 8); err == nil {
		t.Error("bad dims accepted")
	}
}

func TestHalfShiftPhase2D(t *testing.T) {
	// Shifting an image by (s0, s1) multiplies its transform by the
	// separable phase ramp: verify via the 2D plan.
	d0, d1 := 8, 16
	s0, s1 := 3, 5
	x := make([]complex128, d0*d1)
	x[s0*d1+s1] = 1
	p, _ := NewPlan2D[complex128](d0, d1, WithNorm(NormNone))
	if err := p.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			phase := -2 * math.Pi * (float64(i*s0)/float64(d0) + float64(j*s1)/float64(d1))
			want := cmplx.Exp(complex(0, phase))
			if cmplx.Abs(x[i*d1+j]-want) > 1e-10 {
				t.Fatalf("X[%d,%d] = %v, want %v", i, j, x[i*d1+j], want)
			}
		}
	}
}

func TestParallel2DMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	d0, d1 := 32, 16
	x := randVec128(rng, d0*d1)
	serial := append([]complex128(nil), x...)
	ps, err := NewPlan2D[complex128](d0, d1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Transform(serial, Forward); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		par := append([]complex128(nil), x...)
		pp, err := NewPlan2D[complex128](d0, d1, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := pp.Transform(par, Forward); err != nil {
			t.Fatal(err)
		}
		if e := relErr(par, serial); e > tol128 {
			t.Errorf("workers=%d: error %g", workers, e)
		}
		// Inverse round trip through the parallel path (exercises the
		// direction plumbing).
		if err := pp.Transform(par, Inverse); err != nil {
			t.Fatal(err)
		}
		if e := relErr(par, x); e > tol128 {
			t.Errorf("workers=%d: inverse round trip error %g", workers, e)
		}
	}
	pp, _ := NewPlan2D[complex128](d0, d1, WithWorkers(2))
	if err := pp.Transform(make([]complex128, 3), Forward); err == nil {
		t.Error("bad length accepted")
	}
}
