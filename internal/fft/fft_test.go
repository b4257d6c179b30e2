package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// relErr returns the relative L2 error between got and want.
func relErr[T Complex](got, want []T) float64 {
	var num, den float64
	for i := range got {
		d := complex128(got[i]) - complex128(want[i])
		num += real(d)*real(d) + imag(d)*imag(d)
		w := complex128(want[i])
		den += real(w)*real(w) + imag(w)*imag(w)
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

const (
	tol64  = 2e-4
	tol128 = 1e-10
)

func randVec64(rng *rand.Rand, n int) []complex64 {
	v := make([]complex64, n)
	for i := range v {
		v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return v
}

func randVec128(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func TestRadices(t *testing.T) {
	cases := map[int][]int{
		2: {2}, 4: {4}, 8: {8}, 16: {8, 2}, 32: {8, 4}, 64: {8, 8},
		128: {8, 8, 2}, 512: {8, 8, 8}, 1024: {8, 8, 8, 2},
	}
	for n, want := range cases {
		got, err := Radices(n)
		if err != nil {
			t.Fatalf("Radices(%d): %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("Radices(%d) = %v, want %v", n, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Radices(%d) = %v, want %v", n, got, want)
			}
		}
	}
	if _, err := Radices(12); err == nil {
		t.Error("Radices(12) succeeded")
	}
	if _, err := Radices(0); err == nil {
		t.Error("Radices(0) succeeded")
	}
}

func TestRadicesFixed(t *testing.T) {
	rs, err := RadicesFixed(64, 2)
	if err != nil || len(rs) != 6 {
		t.Fatalf("RadicesFixed(64,2) = %v, %v", rs, err)
	}
	rs, err = RadicesFixed(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	prod := 1
	for _, r := range rs {
		prod *= r
	}
	if prod != 32 {
		t.Fatalf("RadicesFixed(32,4) = %v (product %d)", rs, prod)
	}
	if _, err := RadicesFixed(64, 5); err == nil {
		t.Error("radix 5 accepted")
	}
}

func TestPlanMatchesDFTComplex64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		if n == 1 {
			continue // plans require power of two >= 2? size 1 handled below
		}
		x := randVec64(rng, n)
		want := DFT(x, Forward)
		p, err := NewPlan[complex64](n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := append([]complex64(nil), x...)
		if err := p.Transform(got, Forward); err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > tol64 {
			t.Errorf("n=%d: relative error %g > %g", n, e, tol64)
		}
	}
}

func TestPlanMatchesDFTComplex128(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 8, 64, 256, 1024} {
		x := randVec128(rng, n)
		want := DFT(x, Forward)
		p, err := NewPlan[complex128](n)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := p.Transform(got, Forward); err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > tol128 {
			t.Errorf("n=%d: relative error %g > %g", n, e, tol128)
		}
	}
}

func TestSizeOnePlan(t *testing.T) {
	p, err := NewPlan[complex128](1)
	if err != nil {
		t.Fatal(err)
	}
	x := []complex128{3 + 4i}
	if err := p.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	if x[0] != 3+4i {
		t.Fatalf("1-point transform changed value: %v", x[0])
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 16, 128, 4096} {
		x := randVec128(rng, n)
		orig := append([]complex128(nil), x...)
		p, err := NewPlan[complex128](n)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Transform(x, Forward); err != nil {
			t.Fatal(err)
		}
		if err := p.Transform(x, Inverse); err != nil {
			t.Fatal(err)
		}
		if e := relErr(x, orig); e > tol128 {
			t.Errorf("n=%d: round-trip error %g", n, e)
		}
	}
}

func TestNormalizationModes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 64
	x := randVec128(rng, n)

	// NormNone: forward-then-inverse multiplies by N.
	pNone, _ := NewPlan[complex128](n, WithNorm(NormNone))
	y := append([]complex128(nil), x...)
	pNone.Transform(y, Forward)
	pNone.Transform(y, Inverse)
	scaled := make([]complex128, n)
	for i := range scaled {
		scaled[i] = x[i] * complex(float64(n), 0)
	}
	if e := relErr(y, scaled); e > tol128 {
		t.Errorf("NormNone round trip error %g", e)
	}

	// NormUnitary: Parseval holds exactly per transform.
	pUni, _ := NewPlan[complex128](n, WithNorm(NormUnitary))
	y = append([]complex128(nil), x...)
	pUni.Transform(y, Forward)
	var eIn, eOut float64
	for i := range x {
		eIn += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		eOut += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
	}
	if math.Abs(eIn-eOut) > 1e-9*eIn {
		t.Errorf("unitary transform not energy preserving: %g vs %g", eIn, eOut)
	}
	pUni.Transform(y, Inverse)
	if e := relErr(y, x); e > tol128 {
		t.Errorf("unitary round trip error %g", e)
	}
}

// TestWithRadicesOverride runs the pass loop under explicit radix
// decompositions, including orders Radices never emits, so every
// specialized Stockham kernel is checked at every stride.
func TestWithRadicesOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 64
	x := randVec128(rng, n)
	want := DFT(x, Forward)
	for _, rs := range [][]int{{2, 2, 2, 2, 2, 2}, {4, 4, 4}, {8, 8}, {2, 4, 8}, {8, 4, 2}} {
		p := planWithRadices[complex128](n, rs)
		got := append([]complex128(nil), x...)
		if err := p.Transform(got, Forward); err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > tol128 {
			t.Errorf("radices %v: error %g", rs, e)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan[complex128](0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewPlan[complex128](24); err == nil {
		t.Error("size 24 accepted")
	}
	p, _ := NewPlan[complex128](8)
	if err := p.Transform(make([]complex128, 4), Forward); err == nil {
		t.Error("wrong-length input accepted")
	}
	if err := p.TransformTo(make([]complex128, 8), make([]complex128, 4), Forward); err == nil {
		t.Error("wrong-length src accepted")
	}
}

func TestTransformToPreservesSource(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randVec128(rng, 32)
	orig := append([]complex128(nil), x...)
	p, _ := NewPlan[complex128](32)
	dst := make([]complex128, 32)
	if err := p.TransformTo(dst, x, Forward); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("TransformTo modified source")
		}
	}
	want := DFT(orig, Forward)
	if e := relErr(dst, want); e > tol128 {
		t.Errorf("TransformTo error %g", e)
	}
}

func TestDIT2MatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 8, 64, 512} {
		x := randVec128(rng, n)
		want := DFT(x, Forward)
		got := append([]complex128(nil), x...)
		if err := DIT2InPlace(got, Forward); err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > tol128 {
			t.Errorf("DIT2 n=%d: error %g", n, e)
		}
	}
	if err := DIT2InPlace(make([]complex128, 3), Forward); err == nil {
		t.Error("DIT2 accepted non-power-of-two")
	}
}

func TestRecursiveMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{2, 16, 128} {
		x := randVec128(rng, n)
		want := DFT(x, Forward)
		got := append([]complex128(nil), x...)
		if err := RecursiveDIT(got, Forward); err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > tol128 {
			t.Errorf("recursive n=%d: error %g", n, e)
		}
	}
}

func TestHybridMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randVec128(rng, 256)
	want := DFT(x, Forward)
	for _, cutoff := range []int{2, 8, 32, 256, 1024} {
		got := append([]complex128(nil), x...)
		if err := HybridDepthBreadth(got, Forward, cutoff); err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > tol128 {
			t.Errorf("hybrid cutoff=%d: error %g", cutoff, e)
		}
	}
}

// Property: linearity F(a·x + b·y) = a·F(x) + b·F(y).
func TestLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 128
	p, _ := NewPlan[complex128](n, WithNorm(NormNone))
	for trial := 0; trial < 20; trial++ {
		x := randVec128(rng, n)
		y := randVec128(rng, n)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		b := complex(rng.NormFloat64(), rng.NormFloat64())
		comb := make([]complex128, n)
		for i := range comb {
			comb[i] = a*x[i] + b*y[i]
		}
		fx := make([]complex128, n)
		fy := make([]complex128, n)
		p.TransformTo(fx, x, Forward)
		p.TransformTo(fy, y, Forward)
		p.Transform(comb, Forward)
		want := make([]complex128, n)
		for i := range want {
			want[i] = a*fx[i] + b*fy[i]
		}
		if e := relErr(comb, want); e > tol128 {
			t.Fatalf("trial %d: linearity violated, error %g", trial, e)
		}
	}
}

// Property: Parseval's theorem sum|x|^2 = (1/N) sum|X|^2.
func TestParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 1 << (1 + rng.Intn(10))
		x := randVec128(rng, n)
		p, _ := NewPlan[complex128](n, WithNorm(NormNone))
		fx := make([]complex128, n)
		p.TransformTo(fx, x, Forward)
		var eIn, eOut float64
		for i := range x {
			eIn += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			eOut += real(fx[i])*real(fx[i]) + imag(fx[i])*imag(fx[i])
		}
		if math.Abs(eIn-eOut/float64(n)) > 1e-9*eIn {
			t.Fatalf("n=%d: Parseval violated: %g vs %g/N", n, eIn, eOut)
		}
	}
}

// Property: an impulse at position s transforms to the pure phase ramp
// X_k = ω_N^{-ks} (the shift theorem applied to delta).
func TestImpulseAndShiftProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 64
	p, _ := NewPlan[complex128](n, WithNorm(NormNone))
	for trial := 0; trial < 10; trial++ {
		s := rng.Intn(n)
		x := make([]complex128, n)
		x[s] = 1
		p.Transform(x, Forward)
		for k := 0; k < n; k++ {
			want := cmplx.Exp(complex(0, -2*math.Pi*float64(k*s)/float64(n)))
			if cmplx.Abs(x[k]-want) > 1e-10 {
				t.Fatalf("impulse at %d: X[%d] = %v, want %v", s, k, x[k], want)
			}
		}
	}
}

// Property: a constant signal transforms to a scaled delta at zero.
func TestConstantSignal(t *testing.T) {
	n := 256
	p, _ := NewPlan[complex128](n, WithNorm(NormNone))
	x := make([]complex128, n)
	for i := range x {
		x[i] = 2 - 1i
	}
	p.Transform(x, Forward)
	if cmplx.Abs(x[0]-complex128(complex(float64(2*n), float64(-n)))) > 1e-9*float64(n) {
		t.Fatalf("X[0] = %v", x[0])
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(x[k]) > 1e-9*float64(n) {
			t.Fatalf("X[%d] = %v, want 0", k, x[k])
		}
	}
}

func TestDFTInverseDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randVec128(rng, 16)
	fx := DFT(x, Forward)
	back := DFT(fx, Inverse)
	for i := range back {
		back[i] /= complex(16, 0)
	}
	if e := relErr(back, x); e > tol128 {
		t.Errorf("DFT inverse round trip error %g", e)
	}
}

func TestFourStepMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, c := range []struct{ n, n1 int }{
		{16, 4}, {64, 8}, {256, 16}, {1024, 32}, {1024, 4}, {64, 1}, {64, 64},
	} {
		x := randVec128(rng, c.n)
		want := append([]complex128(nil), x...)
		p, err := NewPlan[complex128](c.n, WithNorm(NormNone))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Transform(want, Forward); err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := FourStep(got, Forward, c.n1); err != nil {
			t.Fatalf("n=%d n1=%d: %v", c.n, c.n1, err)
		}
		if e := relErr(got, want); e > tol128 {
			t.Errorf("n=%d n1=%d: error %g", c.n, c.n1, e)
		}
	}
}

func TestFourStepRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	n := 256
	x := randVec128(rng, n)
	orig := append([]complex128(nil), x...)
	if err := FourStep(x, Forward, 16); err != nil {
		t.Fatal(err)
	}
	if err := FourStep(x, Inverse, 16); err != nil {
		t.Fatal(err)
	}
	scale(x, 1/float64(n))
	if e := relErr(x, orig); e > tol128 {
		t.Errorf("round trip error %g", e)
	}
}

func TestFourStepErrors(t *testing.T) {
	if err := FourStep(make([]complex128, 15), Forward, 3); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if err := FourStep(make([]complex128, 16), Forward, 3); err == nil {
		t.Error("non-dividing factor accepted")
	}
	if err := FourStep(make([]complex128, 16), Forward, 0); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestBatchPlanContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	const n, rows = 32, 5
	x := randVec128(rng, n*rows)
	want := append([]complex128(nil), x...)
	p, _ := NewPlan[complex128](n, WithNorm(NormNone))
	for r := 0; r < rows; r++ {
		p.Transform(want[r*n:(r+1)*n], Forward)
	}
	bp, err := NewBatchPlan[complex128](n, rows, 1, n, WithNorm(NormNone))
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	if e := relErr(x, want); e > tol128 {
		t.Errorf("contiguous batch error %g", e)
	}
}

func TestBatchPlanInterleaved(t *testing.T) {
	// Two interleaved channels: stride 2, dist 1.
	rng := rand.New(rand.NewSource(91))
	const n = 64
	x := randVec128(rng, 2*n)
	// Reference: de-interleave, transform, re-interleave.
	want := append([]complex128(nil), x...)
	p, _ := NewPlan[complex128](n, WithNorm(NormNone))
	for ch := 0; ch < 2; ch++ {
		row := make([]complex128, n)
		for j := 0; j < n; j++ {
			row[j] = want[ch+2*j]
		}
		p.Transform(row, Forward)
		for j := 0; j < n; j++ {
			want[ch+2*j] = row[j]
		}
	}
	bp, err := NewBatchPlan[complex128](n, 2, 2, 1, WithNorm(NormNone))
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	if e := relErr(x, want); e > tol128 {
		t.Errorf("interleaved batch error %g", e)
	}
}

func TestBatchPlanErrors(t *testing.T) {
	if _, err := NewBatchPlan[complex128](32, 0, 1, 32); err == nil {
		t.Error("zero howMany accepted")
	}
	if _, err := NewBatchPlan[complex128](31, 2, 1, 31); err == nil {
		t.Error("bad size accepted")
	}
	bp, _ := NewBatchPlan[complex128](32, 4, 1, 32)
	if got := bp.MinLen(); got != 128 {
		t.Errorf("MinLen = %d, want 128", got)
	}
	if err := bp.Transform(make([]complex128, 100), Forward); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestFrequenciesAndShift(t *testing.T) {
	f := Frequencies(8, 8000)
	want := []float64{0, 1000, 2000, 3000, 4000, -3000, -2000, -1000}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("freqs = %v, want %v", f, want)
		}
	}
	x := []complex128{0, 1, 2, 3, 4, 5, 6, 7}
	FFTShift(x)
	if x[0] != 4 || x[4] != 0 {
		t.Fatalf("fftshift = %v", x)
	}
	IFFTShift(x)
	for i := range x {
		if x[i] != complex(float64(i), 0) {
			t.Fatalf("round trip shift = %v", x)
		}
	}
	// Odd length: shift then unshift restores.
	y := []complex128{0, 1, 2, 3, 4}
	IFFTShift(FFTShift(y))
	for i := range y {
		if y[i] != complex(float64(i), 0) {
			t.Fatalf("odd round trip = %v", y)
		}
	}
	FFTShift([]complex128{}) // no panic on empty
}

func TestBinOf(t *testing.T) {
	k, err := BinOf(1024, 48000, 1200)
	if err != nil {
		t.Fatal(err)
	}
	want := 26 // 1200/48000*1024 = 25.6, rounded
	if k != want {
		t.Errorf("BinOf = %d, want %d", k, want)
	}
	// Negative frequencies wrap to the upper half.
	k, err = BinOf(8, 8000, -1000)
	if err != nil {
		t.Fatal(err)
	}
	if k != 7 {
		t.Errorf("BinOf(-1000) = %d, want 7", k)
	}
	if _, err := BinOf(0, 1, 1); err == nil {
		t.Error("bad geometry accepted")
	}
}

// Property (testing/quick): the convolution theorem — FFT convolution
// equals direct circular convolution for random signals.
func TestConvolutionTheoremProperty(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		rngA := rand.New(rand.NewSource(seedA))
		rngB := rand.New(rand.NewSource(seedB))
		n := 32
		a := randVec128(rngA, n)
		b := randVec128(rngB, n)
		got, err := Convolve(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var want complex128
			for j := 0; j < n; j++ {
				want += a[j] * b[(i-j+n)%n]
			}
			if cmplx.Abs(got[i]-want) > 1e-9*(1+cmplx.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: IFFTShift undoes FFTShift for every length, and the shift
// is a pure rotation (each element lands exactly (n/2) ahead).
func TestShiftProperty(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw)
		x := make([]complex128, n)
		for i, v := range raw {
			x[i] = complex(v, -v)
		}
		y := append([]complex128(nil), x...)
		FFTShift(y)
		for i := range x {
			if y[(i+n/2)%max(n, 1)] != x[i] {
				return false
			}
		}
		IFFTShift(y)
		for i := range x {
			if y[i] != x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
