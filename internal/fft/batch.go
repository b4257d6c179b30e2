package fft

import "fmt"

// Batched and strided execution — the "advanced interface" shape of
// FFTW plans: one planned size applied to many rows, possibly
// interleaved (stride > 1), as multidimensional and multichannel codes
// need.

// BatchPlan applies a 1D plan to howMany transforms laid out in a flat
// buffer with the given stride and distance:
//
//	element j of transform t lives at x[t*dist + j*stride].
//
// stride=1, dist=n is plain contiguous rows; stride=howMany, dist=1 is
// fully interleaved channels. The layout is fixed at construction, and
// a BatchPlan is safe for concurrent Transform calls like the Plan it
// wraps.
type BatchPlan[C Complex] struct {
	plan                  *Plan[C]
	howMany, stride, dist int
}

// NewBatchPlan validates the layout against the buffer contract; the
// caller passes buffers of length >= (howMany-1)*dist + (n-1)*stride + 1.
func NewBatchPlan[C Complex](n, howMany, stride, dist int, opts ...PlanOption) (*BatchPlan[C], error) {
	p, err := NewPlan[C](n, opts...)
	if err != nil {
		return nil, err
	}
	return NewBatchPlanOf(p, howMany, stride, dist)
}

// NewBatchPlanOf wraps an existing 1D plan in a batch layout without
// re-deriving twiddle tables — the shape services use when one cached
// plan backs batches of varying layout. p stays usable on its own, from
// any goroutine, while the batch plan runs.
func NewBatchPlanOf[C Complex](p *Plan[C], howMany, stride, dist int) (*BatchPlan[C], error) {
	if howMany <= 0 || stride <= 0 || dist <= 0 {
		return nil, fmt.Errorf("fft: batch geometry (howMany=%d, stride=%d, dist=%d) must be positive", howMany, stride, dist)
	}
	return &BatchPlan[C]{plan: p, howMany: howMany, stride: stride, dist: dist}, nil
}

// MinLen returns the minimum buffer length the layout requires.
func (b *BatchPlan[C]) MinLen() int {
	n := b.plan.N()
	return (b.howMany-1)*b.dist + (n-1)*b.stride + 1
}

// Transform runs every transform of the batch in place, on one
// execution context of the wrapped plan checked out for the whole
// batch. Strided rows are gathered into the context's row buffer,
// transformed and scattered back.
func (b *BatchPlan[C]) Transform(x []C, dir Direction) error {
	if len(x) < b.MinLen() {
		return fmt.Errorf("fft: buffer length %d below layout minimum %d", len(x), b.MinLen())
	}
	p, n := b.plan, b.plan.N()
	e := p.ctx.get()
	if b.stride != 1 && e.gather == nil {
		e.gather = make([]C, n)
	}
	for t := 0; t < b.howMany; t++ {
		base := t * b.dist
		if b.stride == 1 {
			p.transform(x[base:base+n], dir, e)
			continue
		}
		for j := range e.gather {
			e.gather[j] = x[base+j*b.stride]
		}
		p.transform(e.gather, dir, e)
		for j, v := range e.gather {
			x[base+j*b.stride] = v
		}
	}
	p.ctx.put(e)
	return nil
}
