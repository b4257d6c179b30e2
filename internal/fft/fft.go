// Package fft is a self-contained fast Fourier transform library
// implementing the organization the paper chooses in §IV: radix-2/4/8
// and mixed-radix decimation-in-frequency transforms organized
// breadth-first (iterative, maximum parallelism — the paper's choice for
// XMT), the direct O(N²) DFT as a verification oracle, multidimensional
// transforms via per-dimension row FFTs with axis rotation, and
// goroutine-parallel execution used by the FFTW-substitute host
// baseline. The alternatives §IV-A weighs against it (depth-first,
// four-step, unfused rotation) live in the package's tests, as oracles
// and ablation benchmarks.
//
// Transforms are generic over complex64 (the paper's single-precision
// workload) and complex128.
//
// Every plan type (Plan, BatchPlan, BluesteinPlan, Plan2D, Plan3D) is
// fixed at construction and safe for concurrent Transform calls —
// FFTW's plan-execution contract: each call checks its scratch out of
// the plan for its own use. The Cached* constructors return the shared
// cached plan.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Complex constrains the supported element types.
type Complex interface {
	~complex64 | ~complex128
}

// Direction selects forward (engineering sign convention, e^{-2πi kn/N})
// or inverse transforms.
type Direction int

// Transform directions.
const (
	Forward Direction = -1
	Inverse Direction = +1
)

// Normalization selects the scale factor applied by Inverse transforms.
type Normalization int

const (
	// NormNone applies no scaling: Inverse(Forward(x)) = N·x.
	NormNone Normalization = iota
	// NormByN scales the inverse by 1/N (the common convention):
	// Inverse(Forward(x)) = x.
	NormByN
	// NormUnitary scales both directions by 1/sqrt(N).
	NormUnitary
)

// cis returns e^{i·theta} as T, computing in float64 for accuracy.
func cis[T Complex](theta float64) T {
	s, c := math.Sincos(theta)
	return T(complex(c, s))
}

// scale multiplies every element of x by s.
func scale[T Complex](x []T, s float64) {
	f := T(complex(s, 0))
	for i := range x {
		x[i] *= f
	}
}

// applyNorm applies the normalization for an n-point transform in the
// given direction.
func applyNorm[T Complex](x []T, n int, dir Direction, norm Normalization) {
	switch norm {
	case NormByN:
		if dir == Inverse {
			scale(x, 1/float64(n))
		}
	case NormUnitary:
		scale(x, 1/math.Sqrt(float64(n)))
	}
}

// DFT computes the discrete Fourier transform of src directly from the
// definition (Eq. 1 of the paper) in O(N²) operations, writing into a
// newly allocated slice. It is the verification oracle for every fast
// algorithm in this repository.
func DFT[T Complex](src []T, dir Direction) []T {
	n := len(src)
	dst := make([]T, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			w := float64(dir) * 2 * math.Pi * float64(k*j%n) / float64(n)
			s, c := math.Sincos(w)
			sum += complex128(complex(c, s)) * toC128(src[j])
		}
		dst[k] = T(sum)
	}
	return dst
}

func toC128[T Complex](v T) complex128 { return complex128(v) }

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Log2 returns log2(n) for a power of two n.
func Log2(n int) int { return bits.Len(uint(n)) - 1 }

// checkSize validates a transform length.
func checkSize(n int) error {
	if !IsPowerOfTwo(n) {
		return fmt.Errorf("fft: size %d is not a positive power of two", n)
	}
	return nil
}

// Radices decomposes a power-of-two n into the pass radices the paper's
// implementation uses: radix 8 while possible, then a final radix 4 or 2
// (§IV-A: radix 8 is the largest practical on XMT's 32 FP registers).
func Radices(n int) ([]int, error) {
	if err := checkSize(n); err != nil {
		return nil, err
	}
	var rs []int
	for rem := Log2(n); rem > 0; {
		switch {
		case rem >= 3:
			rs = append(rs, 8)
			rem -= 3
		case rem == 2:
			rs = append(rs, 4)
			rem -= 2
		default:
			rs = append(rs, 2)
			rem--
		}
	}
	return rs, nil
}

// RadicesFixed decomposes n into passes of radix r (r in {2,4,8}) with a
// smaller final pass if needed; used by the radix-ablation benchmarks.
func RadicesFixed(n, r int) ([]int, error) {
	if err := checkSize(n); err != nil {
		return nil, err
	}
	if r != 2 && r != 4 && r != 8 {
		return nil, fmt.Errorf("fft: unsupported radix %d", r)
	}
	lg := map[int]int{2: 1, 4: 2, 8: 3}[r]
	var rs []int
	rem := Log2(n)
	for rem >= lg {
		rs = append(rs, r)
		rem -= lg
	}
	switch rem {
	case 2:
		rs = append(rs, 4)
	case 1:
		rs = append(rs, 2)
	}
	return rs, nil
}
