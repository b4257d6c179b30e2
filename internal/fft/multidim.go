package fft

import "fmt"

// Multidimensional transforms follow the paper's §IV organization
// exactly: the FFT of every row (last axis) is computed, then the axes
// of the array are rotated so that the next round of row FFTs covers
// what were originally the columns (§VI-B; for 2D the rotation is a
// transpose). The row transform and the rotation are fused — each
// round reads the array once and writes it once — mirroring the
// implementation choice the paper makes to "reduce the number of
// synchronization points and round trips to memory". The fused rounds
// are cache-blocked (see block.go) and split across WithWorkers
// goroutines (see parallel.go).
//
// Plan2D and Plan3D are safe for concurrent Transform calls on one
// plan: every call checks an execution context (rotation buffer and
// per-worker tiles) out of the plan for its own use, and every worker
// range checks one out of the shared row plan, so calls never share
// mutable scratch.

// Plan2D transforms dense row-major d0×d1 arrays (index i*d1 + j).
type Plan2D[T Complex] struct {
	d0, d1 int
	r      rotor[T]
}

// NewPlan2D builds a 2D plan; both dimensions must be powers of two.
// Normalization applies once over the whole array; the codelet option
// is forwarded to the row plans.
func NewPlan2D[T Complex](d0, d1 int, opts ...PlanOption) (*Plan2D[T], error) {
	p := &Plan2D[T]{d0: d0, d1: d1}
	if err := p.r.init([]int{d0, d1}, opts); err != nil {
		return nil, err
	}
	return p, nil
}

// Size returns the array dimensions.
func (p *Plan2D[T]) Size() (d0, d1 int) { return p.d0, p.d1 }

// Transform computes the in-place 2D transform of x: rows of length d1
// into the rotation buffer transposed, then rows of length d0 (the
// original columns) transposed back into x.
func (p *Plan2D[T]) Transform(x []T, dir Direction) error { return p.r.transform(x, dir) }

// Plan3D transforms dense row-major d0×d1×d2 arrays
// (index (i*d1 + j)*d2 + k).
type Plan3D[T Complex] struct {
	d0, d1, d2 int
	r          rotor[T]
}

// NewPlan3D builds a 3D plan; all dimensions must be powers of two.
// Normalization applies once over the whole array; the codelet option
// is forwarded to the row plans.
func NewPlan3D[T Complex](d0, d1, d2 int, opts ...PlanOption) (*Plan3D[T], error) {
	p := &Plan3D[T]{d0: d0, d1: d1, d2: d2}
	if err := p.r.init([]int{d0, d1, d2}, opts); err != nil {
		return nil, err
	}
	return p, nil
}

// Size returns the array dimensions.
func (p *Plan3D[T]) Size() (d0, d1, d2 int) { return p.d0, p.d1, p.d2 }

// Transform computes the in-place 3D transform of x: three rounds of
// fused row-FFT + axis rotation (i,j,k) → (k,i,j), returning the array
// to its original orientation fully transformed.
func (p *Plan3D[T]) Transform(x []T, dir Direction) error { return p.r.transform(x, dir) }

// rotor is the engine behind Plan2D and Plan3D: one fused row-FFT +
// axis-rotation round per dimension. Each round FFTs the rows of the
// current (last) axis and rotates that axis to the front, so round i
// transforms rows of length dims[len(dims)-1-i] and, whatever the
// rank, views the array as total/n rows of that length n.
type rotor[T Complex] struct {
	total   int
	maxdim  int
	workers int
	norm    Normalization
	rounds  []*Plan[T] // row plan per round
	ctx     checkout[exec[T]]
}

// exec is the per-Transform-call scratch of a rotor: the rotation
// buffer and one tile per worker. A context is never shared between
// simultaneous calls.
type exec[T Complex] struct {
	buf   []T
	tiles [][]T // [worker]
}

func (r *rotor[T]) init(dims []int, opts []PlanOption) error {
	cfg := newPlanConfig(opts)
	// Row plans leave normalization to the rotor, which applies it once
	// over the whole array. Equal axis lengths share one row plan.
	rowOpts := append(opts[:len(opts):len(opts)], WithNorm(NormNone))
	byLen := map[int]*Plan[T]{}
	r.total, r.workers, r.norm = 1, cfg.workers, cfg.norm
	for i := range dims {
		n := dims[len(dims)-1-i]
		p := byLen[n]
		if p == nil {
			var err error
			if p, err = NewPlan[T](n, rowOpts...); err != nil {
				return err
			}
			byLen[n] = p
		}
		r.rounds = append(r.rounds, p)
		r.total *= n
		r.maxdim = max(r.maxdim, n)
	}
	r.ctx.init(r.newExec)
	return nil
}

// newExec allocates one execution context for the rotor.
func (r *rotor[T]) newExec() *exec[T] {
	e := &exec[T]{buf: make([]T, r.total), tiles: make([][]T, r.workers)}
	for w := range e.tiles {
		e.tiles[w] = make([]T, DefaultBlockSize*r.maxdim)
	}
	return e
}

func (r *rotor[T]) transform(x []T, dir Direction) error {
	if len(x) != r.total {
		return fmt.Errorf("fft: input length %d, want %d", len(x), r.total)
	}
	e := r.ctx.get()
	defer r.ctx.put(e)
	src, dst := x, e.buf
	for _, plan := range r.rounds {
		n := plan.N()
		fusedRound(dst, src, r.total/n, n, DefaultBlockSize, plan, e.tiles, dir)
		src, dst = dst, src
	}
	// After an odd number of rounds (3D) the transformed data lives in
	// the context buffer; copy it back into x.
	if &src[0] != &x[0] {
		copy(x, src)
	}
	applyNorm(x, r.total, dir, r.norm)
	return nil
}
