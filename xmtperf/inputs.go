package main

import "math/rand/v2"

// seededComplex returns n complex64 samples with real and imaginary
// parts uniform in [-1, 1), generated from seed alone: the same seed
// gives the same inputs on every host.
func seededComplex(seed uint64, n int) []complex64 {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	x := make([]complex64, n)
	for i := range x {
		x[i] = complex(float32(2*r.Float64()-1), float32(2*r.Float64()-1))
	}
	return x
}
