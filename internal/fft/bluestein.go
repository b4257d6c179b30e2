package fft

import (
	"fmt"
	"math"
)

// Bluestein's chirp-z algorithm: DFTs of arbitrary length n, expressed
// as a linear convolution of length ≥ 2n−1 evaluated with power-of-two
// transforms. Using the identity 2kn = k² + n² − (k−n)²,
//
//	X_k = w_k · Σ_n (x_n·w_n) · conj(w_{k−n}),   w_m = e^{dir·iπ m²/n},
//
// the sum is a convolution of a_n = x_n·w_n with b_m = conj(w_m).
// This extends the plan API beyond powers of two (the paper's kernel
// only needs powers of two; this is a library completeness extension).

// BluesteinPlan computes arbitrary-length transforms. Like Plan it is
// fixed at construction and safe for concurrent Transform calls.
type BluesteinPlan[C Complex] struct {
	n     int
	m     int // inner power-of-two convolution size
	inner *Plan[C]
	norm  Normalization
	// Per-direction chirp and the forward transform of the padded,
	// wrapped chirp kernel, both built at construction.
	w  map[Direction][]C
	fb map[Direction][]C
}

// NewBluestein builds a plan for n-point transforms, any n >= 1.
func NewBluestein[C Complex](n int, opts ...PlanOption) (*BluesteinPlan[C], error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: bluestein size %d must be positive", n)
	}
	cfg := newPlanConfig(opts)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	inner, err := NewPlan[C](m, WithNorm(NormNone))
	if err != nil {
		return nil, err
	}
	p := &BluesteinPlan[C]{n: n, m: m, inner: inner, norm: cfg.norm,
		w: map[Direction][]C{}, fb: map[Direction][]C{}}
	for _, dir := range []Direction{Forward, Inverse} {
		if p.w[dir], p.fb[dir], err = p.chirp(dir); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// N returns the transform size.
func (p *BluesteinPlan[C]) N() int { return p.n }

// InnerSize returns the power-of-two convolution length.
func (p *BluesteinPlan[C]) InnerSize() int { return p.m }

// chirp builds w and FFT(b) for dir.
func (p *BluesteinPlan[C]) chirp(dir Direction) (w, fb []C, err error) {
	n := p.n
	w = make([]C, n)
	for j := 0; j < n; j++ {
		// j² mod 2n keeps the argument small: e^{iπ m²/n} has period 2n
		// in m².
		q := (j * j) % (2 * n)
		w[j] = cis[C](float64(dir) * math.Pi * float64(q) / float64(n))
	}
	b := make([]C, p.m)
	for j := 0; j < n; j++ {
		c := conjC(w[j])
		b[j] = c
		if j > 0 {
			b[p.m-j] = c // wrapped negative indices for linear convolution
		}
	}
	if err := p.inner.Transform(b, Forward); err != nil {
		return nil, nil, err
	}
	return w, b, nil
}

// Transform computes the in-place n-point transform of x.
func (p *BluesteinPlan[C]) Transform(x []C, dir Direction) error {
	if len(x) != p.n {
		return fmt.Errorf("fft: input length %d does not match plan size %d", len(x), p.n)
	}
	w, fb := p.w[dir], p.fb[dir]
	a := make([]C, p.m)
	for j := 0; j < p.n; j++ {
		a[j] = x[j] * w[j]
	}
	if err := p.inner.Transform(a, Forward); err != nil {
		return err
	}
	for j := range a {
		a[j] *= fb[j]
	}
	if err := p.inner.Transform(a, Inverse); err != nil {
		return err
	}
	scale := C(complex(1/float64(p.m), 0)) // inner plan is unnormalized
	for k := 0; k < p.n; k++ {
		x[k] = w[k] * a[k] * scale
	}
	applyNorm(x, p.n, dir, p.norm)
	return nil
}

// AnyPlan is the common interface of power-of-two and Bluestein plans.
type AnyPlan[C Complex] interface {
	N() int
	Transform(x []C, dir Direction) error
}

// NewAnyPlan returns the most efficient plan for n: the Stockham plan
// for powers of two, a Bluestein plan otherwise.
func NewAnyPlan[C Complex](n int, opts ...PlanOption) (AnyPlan[C], error) {
	if IsPowerOfTwo(n) && n > 1 {
		return NewPlan[C](n, opts...)
	}
	return NewBluestein[C](n, opts...)
}
