package codelet

import (
	"math"
	"math/bits"
	"sync"
)

// Kernel64 returns the complex64 kernel for n, or nil if n is uncovered.
// The returned kernel computes the unnormalized n-point DFT of x in
// place using s as scratch; both slices need at least n elements.
func Kernel64(n int, inverse bool) func(x, s []complex64) {
	f := kernel64(n, inverse)
	if f != nil {
		twiddles64.prepare(n)
	}
	return f
}

// Kernel128 is Kernel64 for complex128.
func Kernel128(n int, inverse bool) func(x, s []complex128) {
	f := kernel128(n, inverse)
	if f != nil {
		twiddles128.prepare(n)
	}
	return f
}

// twiddleSet is one element type's twiddle tables: table(l) is the table
// of pass length l, and once[bits.Len(l)] guards its one fill per
// process.
// Every kernel is reached through Kernel64/Kernel128, which fill the
// tables of its passes first, so a kernel never reads an unfilled table.
type twiddleSet[T complex64 | complex128] struct {
	table func(l int) [][7]complex128
	once  [bits.UintSize]sync.Once
}

var (
	twiddles64  = twiddleSet[complex64]{table: table64}
	twiddles128 = twiddleSet[complex128]{table: table128}
)

// prepare fills the tables of the n-point kernel's twiddled passes: the
// radix-8 passes at l = n, n/8, n/64, ... while l >= 16.
func (t *twiddleSet[T]) prepare(n int) {
	for l := n; l >= 16; l /= 8 {
		t.once[bits.Len(uint(l))].Do(func() { fill[T](t.table(l), l) })
	}
}

// fill sets tab[j][m-1] = ω_l^{-m·j} for m = 1..7, the forward twiddles
// of the radix-8 pass over sub-transforms of length l, rounded to T. The
// complex64 tables hold their float32 values widened to float64, the
// width mul64 multiplies at; the inverse kernels multiply by the
// conjugates.
func fill[T complex64 | complex128](tab [][7]complex128, l int) {
	for j := range tab {
		for m := 1; m < 8; m++ {
			tab[j][m-1] = complex128(twiddle[T](m*j, l))
		}
	}
}

// twiddle returns ω_l^{-e} rounded to T. The angles on the axes are
// exact: 1, -1, -i and i at e = 0, l/2, l/4 and 3l/4, where math.Sincos
// leaves a residue of about 1e-16 on the zero component. Elsewhere it is
// the Sincos of the angle -2π·e/l, and since Sincos is odd in its sine,
// the conjugate is exactly the inverse twiddle.
func twiddle[T complex64 | complex128](e, l int) T {
	switch {
	case e == 0:
		return 1
	case 2*e == l:
		return -1
	case 4*e == l:
		return -1i
	case 4*e == 3*l:
		return 1i
	}
	const dir = -1 // the forward direction's sign
	s, c := math.Sincos(float64(dir) * 2 * math.Pi * float64(e) / float64(l))
	return T(complex(c, s))
}

// mul64 is v·w for a complex64 twiddle w held at float64 width. It is
// the arithmetic of Go's complex64 product, which widens both operands
// to float64, multiplies there and rounds the result to float32, so it
// gives the same bits without widening w on every use.
func mul64(v complex64, w complex128) complex64 {
	vr, vi := float64(real(v)), float64(imag(v))
	return complex(float32(vr*real(w)-vi*imag(w)), float32(vr*imag(w)+vi*real(w)))
}

// mulConj64 is v·conj(w), the same bits as mul64(v, conj(w)): negating
// an operand of a product or a difference is exact.
func mulConj64(v complex64, w complex128) complex64 {
	vr, vi := float64(real(v)), float64(imag(v))
	return complex(float32(vr*real(w)+vi*imag(w)), float32(vi*real(w)-vr*imag(w)))
}

// mul128 is v·w.
func mul128(v, w complex128) complex128 { return v * w }

// mulConj128 is v·conj(w), the same bits as v*conj(w).
func mulConj128(v, w complex128) complex128 {
	vr, vi := real(v), imag(v)
	return complex(vr*real(w)+vi*imag(w), vi*real(w)-vr*imag(w))
}
