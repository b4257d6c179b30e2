package fft

import (
	"fmt"
	"math"
)

// Real-input transforms via the standard packing trick: an N-point real
// sequence is viewed as an N/2-point complex sequence, transformed with
// one half-size FFT, and untangled into the N/2+1 non-redundant bins of
// the Hermitian-symmetric spectrum. This halves both compute and
// bandwidth versus a complex transform of the padded signal — relevant
// to the paper's bandwidth-bound setting whenever inputs are real
// (signal processing, PDE grids).

// Float constrains real sample types.
type Float interface {
	~float32 | ~float64
}

// RealForward computes the forward DFT of a real sequence of even
// length n, returning the n/2+1 non-redundant complex bins
// X[0..n/2] (X[0] and X[n/2] have zero imaginary part).
func RealForward[C Complex, F Float](x []F) ([]C, error) {
	n := len(x)
	if n < 2 || n%2 != 0 || !IsPowerOfTwo(n) {
		return nil, fmt.Errorf("fft: real transform length %d must be an even power of two", n)
	}
	half := n / 2
	// Pack adjacent pairs into complex samples.
	z := make([]C, half)
	for j := 0; j < half; j++ {
		z[j] = C(complex(float64(x[2*j]), float64(x[2*j+1])))
	}
	p, err := CachedPlan[C](half, WithNorm(NormNone))
	if err != nil {
		return nil, err
	}
	if err := p.Transform(z, Forward); err != nil {
		return nil, err
	}
	// Untangle: X[k] = E[k] + e^{-2πik/n}·O[k] where
	// E[k] = (Z[k] + conj(Z[half-k]))/2, O[k] = -i(Z[k] - conj(Z[half-k]))/2.
	out := make([]C, half+1)
	for k := 0; k <= half; k++ {
		zk := zAt(z, k, half)
		zc := conjC(zAt(z, half-k, half))
		e := (zk + zc) * C(complex(0.5, 0))
		o := (zk - zc) * C(complex(0, -0.5))
		out[k] = e + cis[C](-2*math.Pi*float64(k)/float64(n))*o
	}
	return out, nil
}

// RealInverse reconstructs the even-length-n real sequence whose
// forward transform is the n/2+1 bins in spec (unnormalized forward;
// the inverse applies the 1/n factor).
func RealInverse[C Complex, F Float](spec []C, n int) ([]F, error) {
	if n < 2 || n%2 != 0 || !IsPowerOfTwo(n) {
		return nil, fmt.Errorf("fft: real transform length %d must be an even power of two", n)
	}
	half := n / 2
	if len(spec) != half+1 {
		return nil, fmt.Errorf("fft: spectrum has %d bins, want %d", len(spec), half+1)
	}
	// Re-tangle into the half-size complex spectrum:
	// Z[k] = E[k] + i·e^{+2πik/n}... derived by inverting the untangle:
	// E[k] = (X[k] + conj(X[half-k]))/2,
	// O[k] = e^{+2πik/n}·(X[k] - conj(X[half-k]))·(i/2)... with
	// Z[k] = E[k] + i·O[k].
	z := make([]C, half)
	for k := 0; k < half; k++ {
		xk := spec[k]
		xc := conjC(spec[half-k])
		e := (xk + xc) * C(complex(0.5, 0))
		o := (xk - xc) * C(complex(0.5, 0)) * cis[C](2*math.Pi*float64(k)/float64(n))
		z[k] = e + o*C(complex(0, 1))
	}
	p, err := CachedPlan[C](half, WithNorm(NormNone))
	if err != nil {
		return nil, err
	}
	if err := p.Transform(z, Inverse); err != nil {
		return nil, err
	}
	out := make([]F, n)
	for j := 0; j < half; j++ {
		v := complex128(z[j])
		out[2*j] = F(real(v) / float64(half))
		out[2*j+1] = F(imag(v) / float64(half))
	}
	return out, nil
}

// zAt reads the half-size spectrum with the wrap Z[half] = Z[0].
func zAt[C Complex](z []C, k, half int) C {
	if k == half {
		return z[0]
	}
	return z[k]
}

func conjC[C Complex](v C) C {
	c := complex128(v)
	return C(complex(real(c), -imag(c)))
}
