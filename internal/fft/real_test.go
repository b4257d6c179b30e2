package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestRealForwardMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{2, 4, 16, 128, 1024} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// Reference: complex DFT of the real signal.
		cx := make([]complex128, n)
		for i := range x {
			cx[i] = complex(x[i], 0)
		}
		want := DFT(cx, Forward)

		got, err := RealForward[complex128](x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n/2+1 {
			t.Fatalf("n=%d: got %d bins, want %d", n, len(got), n/2+1)
		}
		for k := 0; k <= n/2; k++ {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*(1+cmplx.Abs(want[k])) {
				t.Fatalf("n=%d: X[%d] = %v, want %v", n, k, got[k], want[k])
			}
		}
		// Purely real bins at DC and Nyquist.
		if math.Abs(imag(got[0])) > 1e-9 || math.Abs(imag(got[n/2])) > 1e-9 {
			t.Errorf("n=%d: DC/Nyquist bins not real: %v %v", n, got[0], got[n/2])
		}
	}
}

func TestRealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{4, 64, 512} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec, err := RealForward[complex128](x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := RealInverse[complex128, float64](spec, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip x[%d] = %g, want %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestRealFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 256
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	spec, err := RealForward[complex64](x)
	if err != nil {
		t.Fatal(err)
	}
	back, err := RealInverse[complex64, float32](spec, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(float64(back[i]-x[i])) > 1e-3 {
			t.Fatalf("float32 round trip x[%d] = %g, want %g", i, back[i], x[i])
		}
	}
}

func TestRealErrors(t *testing.T) {
	if _, err := RealForward[complex128]([]float64{1, 2, 3}); err == nil {
		t.Error("odd length accepted")
	}
	if _, err := RealForward[complex128]([]float64{1}); err == nil {
		t.Error("length 1 accepted")
	}
	if _, err := RealInverse[complex128, float64](make([]complex128, 3), 8); err == nil {
		t.Error("wrong spectrum length accepted")
	}
	if _, err := RealInverse[complex128, float64](make([]complex128, 5), 7); err == nil {
		t.Error("odd n accepted")
	}
}

func TestBluesteinMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 3, 5, 7, 12, 17, 60, 97, 128, 1000} {
		x := randVec128(rng, n)
		want := DFT(x, Forward)
		p, err := NewBluestein[complex128](n, WithNorm(NormNone))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := append([]complex128(nil), x...)
		if err := p.Transform(got, Forward); err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > 1e-9 {
			t.Errorf("bluestein n=%d: error %g", n, e)
		}
	}
}

func TestBluesteinRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{3, 10, 35, 129} {
		x := randVec128(rng, n)
		orig := append([]complex128(nil), x...)
		p, err := NewBluestein[complex128](n)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Transform(x, Forward); err != nil {
			t.Fatal(err)
		}
		if err := p.Transform(x, Inverse); err != nil {
			t.Fatal(err)
		}
		if e := relErr(x, orig); e > 1e-9 {
			t.Errorf("n=%d: round trip error %g", n, e)
		}
	}
}

func TestBluesteinComplex64(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n := 100
	x := randVec64(rng, n)
	want := DFT(x, Forward)
	p, err := NewBluestein[complex64](n, WithNorm(NormNone))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	if e := relErr(x, want); e > 1e-3 {
		t.Errorf("error %g", e)
	}
}

func TestBluesteinErrors(t *testing.T) {
	if _, err := NewBluestein[complex128](0); err == nil {
		t.Error("size 0 accepted")
	}
	p, _ := NewBluestein[complex128](5)
	if err := p.Transform(make([]complex128, 4), Forward); err == nil {
		t.Error("wrong length accepted")
	}
	if p.N() != 5 || p.InnerSize() < 9 || !IsPowerOfTwo(p.InnerSize()) {
		t.Errorf("plan geometry: n=%d m=%d", p.N(), p.InnerSize())
	}
}

func TestNewAnyPlanSelects(t *testing.T) {
	p1, err := NewAnyPlan[complex128](64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p1.(*Plan[complex128]); !ok {
		t.Errorf("power of two got %T", p1)
	}
	p2, err := NewAnyPlan[complex128](60)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p2.(*BluesteinPlan[complex128]); !ok {
		t.Errorf("non-power-of-two got %T", p2)
	}
	// Both satisfy the interface and transform correctly.
	rng := rand.New(rand.NewSource(46))
	for _, p := range []AnyPlan[complex128]{p1, p2} {
		x := randVec128(rng, p.N())
		want := DFT(x, Forward)
		got := append([]complex128(nil), x...)
		if err := p.Transform(got, Forward); err != nil {
			t.Fatal(err)
		}
		// Undo normalization difference: both default plans are NormByN,
		// which only scales the inverse, so forward matches the DFT.
		if e := relErr(got, want); e > 1e-9 {
			t.Errorf("n=%d: error %g", p.N(), e)
		}
	}
}

func TestWindows(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		c := w.Coefficients(64)
		if len(c) != 64 {
			t.Fatalf("%v: %d coefficients", w, len(c))
		}
		for i, v := range c {
			if v < -1e-12 || v > 1+1e-12 {
				t.Errorf("%v[%d] = %g outside [0,1]", w, i, v)
			}
		}
		// Symmetry.
		for i := range c {
			if math.Abs(c[i]-c[len(c)-1-i]) > 1e-12 {
				t.Errorf("%v not symmetric at %d", w, i)
			}
		}
		if g := w.CoherentGain(64); g <= 0 || g > 1 {
			t.Errorf("%v coherent gain %g", w, g)
		}
		if w.String() == "unknown" {
			t.Errorf("window %d has no name", w)
		}
	}
	// Known center values.
	if c := Hann.Coefficients(65); math.Abs(c[32]-1) > 1e-12 {
		t.Errorf("hann center = %g", c[32])
	}
	if c := Rectangular.Coefficients(8); c[0] != 1 || c[7] != 1 {
		t.Error("rectangular not all ones")
	}
	if c := Rectangular.Coefficients(1); c[0] != 1 {
		t.Error("length-1 window")
	}
	// ApplyWindow scales a constant signal into the window shape.
	x := make([]complex128, 32)
	for i := range x {
		x[i] = 1
	}
	ApplyWindow(x, Hann)
	hc := Hann.Coefficients(32)
	for i := range x {
		if math.Abs(real(x[i])-hc[i]) > 1e-12 {
			t.Fatalf("apply mismatch at %d", i)
		}
	}
}

// Windowing reduces spectral leakage: for an off-bin sinusoid, the
// energy outside the main lobe is far lower with Hann than rectangular.
func TestWindowReducesLeakage(t *testing.T) {
	n := 256
	freq := 10.37 // deliberately between bins
	mk := func(w Window) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(math.Cos(2*math.Pi*freq*float64(i)/float64(n)), 0)
		}
		ApplyWindow(x, w)
		p, _ := NewPlan[complex128](n, WithNorm(NormNone))
		p.Transform(x, Forward)
		return x
	}
	leakage := func(spec []complex128) float64 {
		var far float64
		for k := 20; k < n-20; k++ { // away from the ±10.37 lobes
			far += cmplx.Abs(spec[k]) * cmplx.Abs(spec[k])
		}
		return far
	}
	rect := leakage(mk(Rectangular))
	hann := leakage(mk(Hann))
	if hann*10 > rect {
		t.Errorf("hann leakage %g not <<10x rectangular %g", hann, rect)
	}
}

// Precision study: single-precision error grows slowly with N (the
// property that lets the paper use complex64 at 512^3); complex128
// stays near machine epsilon.
func TestPrecisionGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	var prev64 float64
	for _, n := range []int{64, 512, 4096} {
		x128 := randVec128(rng, n)
		x64 := make([]complex64, n)
		for i := range x64 {
			x64[i] = complex64(x128[i])
		}
		want := DFT(x128, Forward)
		p64, _ := NewPlan[complex64](n, WithNorm(NormNone))
		p64.Transform(x64, Forward)
		asc := make([]complex128, n)
		for i := range asc {
			asc[i] = complex128(x64[i])
		}
		e64 := relErr(asc, want)
		p128, _ := NewPlan[complex128](n, WithNorm(NormNone))
		got := append([]complex128(nil), x128...)
		p128.Transform(got, Forward)
		e128 := relErr(got, want)
		t.Logf("n=%5d: complex64 err %.2e, complex128 err %.2e", n, e64, e128)
		if e64 > 1e-4 {
			t.Errorf("n=%d: single-precision error %g too large", n, e64)
		}
		if e128 > 1e-12 {
			t.Errorf("n=%d: double-precision error %g too large", n, e128)
		}
		if prev64 > 0 && e64 > prev64*64 {
			t.Errorf("n=%d: error grew too fast: %g from %g", n, e64, prev64)
		}
		prev64 = e64
	}
}

// TestRealForwardReusesCachedPlan bounds RealForward's bytes per call
// at n=8192 by what it must allocate — the n/2-point packed input and
// the n/2+1-bin result, with room for the runtime's page rounding of
// large objects — so no per-call half-size plan (scratch and twiddle
// tables) fits.
func TestRealForwardReusesCachedPlan(t *testing.T) {
	defer ResetPlanCache()
	const n = 8192
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	got := cacheHitBytes(t, func() error { _, err := RealForward[complex128](x); return err })
	t.Logf("RealForward at n=%d allocates %d B per call", n, got)
	if limit := uint64(3 * n / 2 * 16); got > limit {
		t.Errorf("RealForward at n=%d allocates %d B per call, want at most %d", n, got, limit)
	}
}
