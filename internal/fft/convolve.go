package fft

import "fmt"

// Convolution helpers built on the transforms: the signal-processing
// application domain the paper's introduction motivates.

// Convolve returns the circular convolution of a and b (equal power-of-
// two lengths) computed by the convolution theorem: IFFT(FFT(a)·FFT(b)).
func Convolve[T Complex](a, b []T) ([]T, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("fft: convolve length mismatch %d vs %d", len(a), len(b))
	}
	p, err := CachedPlan[T](len(a))
	if err != nil {
		return nil, err
	}
	fa := make([]T, len(a))
	fb := make([]T, len(b))
	if err := p.TransformTo(fa, a, Forward); err != nil {
		return nil, err
	}
	if err := p.TransformTo(fb, b, Forward); err != nil {
		return nil, err
	}
	for i := range fa {
		fa[i] *= fb[i]
	}
	if err := p.Transform(fa, Inverse); err != nil {
		return nil, err
	}
	return fa, nil
}

// ConvolveLinear returns the linear convolution of a and b (lengths need
// not be powers of two) by zero-padding to the next power of two at
// least len(a)+len(b)-1. The result has length len(a)+len(b)-1.
func ConvolveLinear[T Complex](a, b []T) ([]T, error) {
	if len(a) == 0 || len(b) == 0 {
		return nil, fmt.Errorf("fft: convolve with empty input")
	}
	out := len(a) + len(b) - 1
	n := 1
	for n < out {
		n <<= 1
	}
	pa := make([]T, n)
	pb := make([]T, n)
	copy(pa, a)
	copy(pb, b)
	c, err := Convolve(pa, pb)
	if err != nil {
		return nil, err
	}
	return c[:out], nil
}

// Convolve2D circularly convolves two d0×d1 arrays via 2D transforms:
// the FFT image-filtering path used by examples/convolution2d.
func Convolve2D[T Complex](a, b []T, d0, d1 int) ([]T, error) {
	if len(a) != d0*d1 || len(b) != d0*d1 {
		return nil, fmt.Errorf("fft: convolve2d size mismatch")
	}
	p, err := NewPlan2D[T](d0, d1)
	if err != nil {
		return nil, err
	}
	fa := append([]T(nil), a...)
	fb := append([]T(nil), b...)
	if err := p.Transform(fa, Forward); err != nil {
		return nil, err
	}
	if err := p.Transform(fb, Forward); err != nil {
		return nil, err
	}
	for i := range fa {
		fa[i] *= fb[i]
	}
	if err := p.Transform(fa, Inverse); err != nil {
		return nil, err
	}
	return fa, nil
}
