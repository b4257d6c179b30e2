package fft

// Test-only transform organizations and reference kernels: the
// alternative organizations §IV-A discusses (depth-first vs
// breadth-first, four-step), the unfused rotation, the naive fused
// round, and explicit radix decompositions. Tests and the ablation
// benchmarks in this package are their only callers; the naive round
// is the bit-exact oracle for the blocked and parallel rounds. The 1D
// organizations are unnormalized: composing Forward then Inverse
// yields N·x.

import (
	"fmt"
	"math"
)

// DIT2InPlace computes an in-place radix-2 decimation-in-time transform
// with an explicit bit-reversal permutation — the classic iterative
// formulation, kept as an independently-coded oracle against the
// Stockham executor.
func DIT2InPlace[T Complex](x []T, dir Direction) error {
	n := len(x)
	if err := checkSize(n); err != nil {
		return err
	}
	// Bit-reversal permutation.
	lg := Log2(n)
	for i := 0; i < n; i++ {
		j := reverseBits(i, lg)
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterfly passes: smallest sub-transforms first (decimation in
	// time uses the 2nd roots first, then 4th, 8th, ... as §IV-A notes).
	for l := 2; l <= n; l <<= 1 {
		half := l / 2
		wl := cis[T](float64(dir) * 2 * math.Pi / float64(l))
		for b := 0; b < n; b += l {
			w := T(complex(1, 0))
			for j := 0; j < half; j++ {
				u := x[b+j]
				v := x[b+j+half] * w
				x[b+j] = u + v
				x[b+j+half] = u - v
				w *= wl
			}
		}
	}
	return nil
}

func reverseBits(v, width int) int {
	r := 0
	for i := 0; i < width; i++ {
		r = r<<1 | (v>>i)&1
	}
	return r
}

// RecursiveDIT computes the transform by depth-first recursion on the
// even/odd decomposition (Eq. 3-4 of the paper; the organization of
// cache-oblivious FFT). The working set halves at each level, trading
// parallelism for locality — the opposite end of the design axis from
// the breadth-first Stockham executor.
func RecursiveDIT[T Complex](x []T, dir Direction) error {
	n := len(x)
	if err := checkSize(n); err != nil {
		return err
	}
	scratch := make([]T, n)
	recursiveDIT(x, scratch, dir)
	return nil
}

func recursiveDIT[T Complex](x, scratch []T, dir Direction) {
	n := len(x)
	if n == 1 {
		return
	}
	half := n / 2
	ev, od := scratch[:half], scratch[half:n]
	for i := 0; i < half; i++ {
		ev[i] = x[2*i]
		od[i] = x[2*i+1]
	}
	copy(x, scratch[:n])
	recursiveDIT(x[:half], scratch[:half], dir)
	recursiveDIT(x[half:], scratch[:half], dir)
	// Combine: X_k = E_k + ω_N^{dir·k}·O_k, X_{k+N/2} = E_k − ω_N^{dir·k}·O_k.
	for k := 0; k < half; k++ {
		w := cis[T](float64(dir) * 2 * math.Pi * float64(k) / float64(n))
		e, o := x[k], x[half+k]*w
		x[k] = e + o
		x[half+k] = e - o
	}
}

// HybridDepthBreadth transforms x depth-first until sub-problems reach
// cutoff points, then switches to the breadth-first executor — the
// strategy §IV-A suggests for problem sizes whose working set exceeds
// cache ("start with depth-first and switch to breadth-first when the
// subproblem becomes small enough"). Unnormalized.
func HybridDepthBreadth[T Complex](x []T, dir Direction, cutoff int) error {
	n := len(x)
	if err := checkSize(n); err != nil {
		return err
	}
	if cutoff < 2 {
		cutoff = 2
	}
	if !IsPowerOfTwo(cutoff) {
		return checkSize(cutoff)
	}
	scratch := make([]T, n)
	plans := map[int]*Plan[T]{}
	var rec func(x, scratch []T) error
	rec = func(x, scratch []T) error {
		n := len(x)
		if n <= cutoff {
			p := plans[n]
			if p == nil {
				var err error
				if p, err = NewPlan[T](n, WithNorm(NormNone)); err != nil {
					return err
				}
				plans[n] = p
			}
			return p.Transform(x, dir)
		}
		half := n / 2
		ev, od := scratch[:half], scratch[half:n]
		for i := 0; i < half; i++ {
			ev[i] = x[2*i]
			od[i] = x[2*i+1]
		}
		copy(x, scratch[:n])
		if err := rec(x[:half], scratch[:half]); err != nil {
			return err
		}
		if err := rec(x[half:], scratch[:half]); err != nil {
			return err
		}
		for k := 0; k < half; k++ {
			w := cis[T](float64(dir) * 2 * math.Pi * float64(k) / float64(n))
			e, o := x[k], x[half+k]*w
			x[k] = e + o
			x[half+k] = e - o
		}
		return nil
	}
	return rec(x, scratch)
}

// FourStep computes a large 1D transform by the classic four-step
// (Bailey) decomposition: view the length-N vector as an n1×n2 matrix
// (column-major time order), transform the columns, scale by twiddles,
// transpose, and transform the rows. Each inner transform fits in cache
// even when N does not — the same locality-vs-parallelism trade §IV-A
// discusses, at the opposite extreme from the breadth-first kernel.
//
// x is ordered x[j] with j = j1 + n1·j2 (j1 < n1 indexes columns); the
// output is the standard DFT in natural order. Unnormalized.
func FourStep[C Complex](x []C, dir Direction, n1 int) error {
	n := len(x)
	if err := checkSize(n); err != nil {
		return err
	}
	if n1 <= 0 || n%n1 != 0 {
		return fmt.Errorf("fft: four-step factor %d does not divide %d", n1, n)
	}
	n2 := n / n1
	if !IsPowerOfTwo(n1) || !IsPowerOfTwo(n2) {
		return fmt.Errorf("fft: four-step factors (%d, %d) must be powers of two", n1, n2)
	}
	if n1 == 1 || n2 == 1 {
		p, err := NewPlan[C](n, WithNorm(NormNone))
		if err != nil {
			return err
		}
		return p.Transform(x, dir)
	}

	// Step 1: n1 transforms of length n2 along "rows" of the n1×n2 view:
	// A[j1][j2] = x[j1 + n1·j2]; transform over j2 for each j1.
	p2, err := NewPlan[C](n2, WithNorm(NormNone))
	if err != nil {
		return err
	}
	row := make([]C, n2)
	work := make([]C, n)
	for j1 := 0; j1 < n1; j1++ {
		for j2 := 0; j2 < n2; j2++ {
			row[j2] = x[j1+n1*j2]
		}
		if err := p2.Transform(row, dir); err != nil {
			return err
		}
		// Step 2: twiddle by ω_N^{dir·j1·k2}, and Step 3 (transpose):
		// store at work[k2·n1... transposed layout rows of length n1.
		for k2 := 0; k2 < n2; k2++ {
			w := cis[C](float64(dir) * 2 * math.Pi * float64(j1*k2) / float64(n))
			work[k2*n1+j1] = row[k2] * w
		}
	}

	// Step 4: n2 transforms of length n1 along the transposed rows.
	p1, err := NewPlan[C](n1, WithNorm(NormNone))
	if err != nil {
		return err
	}
	for k2 := 0; k2 < n2; k2++ {
		if err := p1.Transform(work[k2*n1:(k2+1)*n1], dir); err != nil {
			return err
		}
	}

	// Output index: X[k1·n2 + k2] = row k2's element k1.
	for k2 := 0; k2 < n2; k2++ {
		for k1 := 0; k1 < n1; k1++ {
			x[k1*n2+k2] = work[k2*n1+k1]
		}
	}
	return nil
}

// Rotate3D rotates axes (i,j,k) → (k,i,j): dst, laid out d2×d0×d1,
// receives dst[k][i][j] = src[i][j][k] — the rotation of the unfused
// ablation.
func Rotate3D[T Complex](dst, src []T, d0, d1, d2 int) error {
	if len(src) != d0*d1*d2 || len(dst) != d0*d1*d2 {
		return fmt.Errorf("fft: rotate size mismatch")
	}
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			base := (i*d1 + j) * d2
			for k := 0; k < d2; k++ {
				dst[(k*d0+i)*d1+j] = src[base+k]
			}
		}
	}
	return nil
}

// Transpose2D writes dst[j][i] = src[i][j] for a d0×d1 src.
func Transpose2D[T Complex](dst, src []T, d0, d1 int) error {
	if len(src) != d0*d1 || len(dst) != d0*d1 {
		return fmt.Errorf("fft: transpose size mismatch")
	}
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			dst[j*d0+i] = src[i*d1+j]
		}
	}
	return nil
}

// rowsAndRotate transforms each length-n row of src (a rows×n array)
// and stores the result transposed into dst (an n×rows array): the
// fused FFT+rotation round in its naive form, where every write lands
// rows elements from its neighbour. Each row goes through the same
// plan arithmetic as in blockedRowsTranspose, so the two agree bit for
// bit.
func rowsAndRotate[T Complex](dst, src []T, rows, n int, plan *Plan[T], dir Direction) error {
	row := make([]T, n)
	for i := 0; i < rows; i++ {
		copy(row, src[i*n:(i+1)*n])
		if err := plan.Transform(row, dir); err != nil {
			return err
		}
		for j, v := range row {
			dst[j*rows+i] = v
		}
	}
	return nil
}

// naiveTransform computes r's multi-dimensional transform of x with
// every fused round in its naive form, on r's row plans, using buf
// (len(x) elements) as the rotation buffer: the bit-exact oracle for
// Plan2D/Plan3D.Transform at any worker count.
func naiveTransform[T Complex](r *rotor[T], x, buf []T, dir Direction) error {
	src, dst := x, buf
	for _, plan := range r.rounds {
		n := plan.N()
		if err := rowsAndRotate(dst, src, len(x)/n, n, plan, dir); err != nil {
			return err
		}
		src, dst = dst, src
	}
	if &src[0] != &x[0] {
		copy(x, src)
	}
	applyNorm(x, len(x), dir, r.norm)
	return nil
}

// planWithRadices builds a pass-loop plan (NormByN, no codelet leaf)
// with an explicit radix decomposition rs (values in {2,4,8}, product
// n): the radix ablation, reaching pass orders Radices never emits.
func planWithRadices[T Complex](n int, rs []int) *Plan[T] {
	p := &Plan[T]{n: n, radices: rs, norm: NormByN}
	p.tw = map[Direction][][]T{Forward: p.tables(Forward), Inverse: p.tables(Inverse)}
	p.ctx.init(p.newExec)
	return p
}
