package fft

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"xmtfft/internal/fft/codelet"
)

// Plan holds the precomputed state (pass radices and per-pass twiddle
// tables) for repeated transforms of one size, in the spirit of FFTW
// plans. The executor is the breadth-first, self-sorting (Stockham)
// mixed-radix decimation-in-frequency algorithm described in §IV-A:
// every pass exposes N/r independent butterflies, the organization the
// paper chooses for XMT because maximum parallelism is always available.
//
// A Plan's tables and kernels are fixed by NewPlan, and the plan is
// safe for concurrent Transform calls: each call checks its scratch
// out of the plan (see checkout) for its own use.
type Plan[T Complex] struct {
	n       int
	radices []int
	norm    Normalization
	tw      map[Direction][][]T // per-direction, per-pass tables

	// Codelet leaf (see codelets.go). leafN == n means the whole
	// transform runs as one generated kernel; 0 < leafN < n
	// means radices holds only the generic prefix passes and leafStage
	// finishes each strided sub-transform through the kernel; leafN == 0
	// means the plan is pure pass-loop (codelets off or size/type
	// uncovered).
	leafN   int
	leafFwd func(x, scratch []T)
	leafInv func(x, scratch []T)

	ctx checkout[planExec[T]]
}

// planExec is the per-Transform-call scratch of a Plan. A context is
// never shared between simultaneous calls.
type planExec[T Complex] struct {
	scratch []T // Stockham ping-pong buffer, or the leaf kernel's scratch
	leafBuf []T // gather/scatter + kernel scratch for composed plans
	gather  []T // BatchPlan's strided-row buffer, made on first use
}

// checkout lends each call on a shared plan an execution context (its
// per-call scratch) of its own: the context of the last finished call,
// else a spare, else a fresh one. The idle context is referenced from
// the plan alone, so it is freed with the plan: the runtime's pool
// registry would keep a pooled one alive for another GC cycle, which
// shows in the peak RSS of programs that build large throwaway 3D
// plans. spare is a separate object without a New func for the same
// reason — it must not reference the plan.
type checkout[E any] struct {
	idle  atomic.Pointer[E]
	spare *sync.Pool // *E
	fresh func() *E
}

// init readies the checkout; fresh allocates a context when none is
// idle or spare.
func (c *checkout[E]) init(fresh func() *E) { c.spare, c.fresh = &sync.Pool{}, fresh }

// get checks a context out for one call.
func (c *checkout[E]) get() *E {
	if e := c.idle.Swap(nil); e != nil {
		return e
	}
	if e, ok := c.spare.Get().(*E); ok {
		return e
	}
	return c.fresh()
}

// put returns a context checked out by get.
func (c *checkout[E]) put(e *E) {
	if !c.idle.CompareAndSwap(nil, e) {
		c.spare.Put(e)
	}
}

// PlanOption configures plan construction.
type PlanOption func(*planConfig)

type planConfig struct {
	norm     Normalization
	codelets bool
	workers  int
}

// newPlanConfig applies opts to the defaults: NormByN, codelet leaves
// enabled, one worker.
func newPlanConfig(opts []PlanOption) planConfig {
	cfg := planConfig{norm: NormByN, codelets: true, workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithNorm sets the inverse-transform normalization (default NormByN).
func WithNorm(n Normalization) PlanOption {
	return func(c *planConfig) { c.norm = n }
}

// WithCodelets toggles dispatch into the generated codelet
// kernels of internal/fft/codelet (default on). With codelets off — or
// for sizes and element types without a generated kernel — the plan
// executes the generic pass loop exactly as before the codelet layer
// existed, bit for bit.
func WithCodelets(on bool) PlanOption {
	return func(c *planConfig) { c.codelets = on }
}

// WithWorkers sets how many goroutines a multi-dimensional plan splits
// each fused round across (default 1: the rounds run inline on the
// calling goroutine); k <= 0 selects GOMAXPROCS at construction. 1D
// plans ignore the option.
func WithWorkers(k int) PlanOption {
	return func(c *planConfig) {
		if k <= 0 {
			c.workers = runtime.GOMAXPROCS(0)
		} else {
			c.workers = k
		}
	}
}

// NewPlan builds a plan for n-point transforms (n a power of two).
func NewPlan[T Complex](n int, opts ...PlanOption) (*Plan[T], error) {
	return newPlan[T](n, codelet.MaxN, opts)
}

// newPlan is NewPlan with codelet leaves of at most maxLeaf points.
func newPlan[T Complex](n, maxLeaf int, opts []PlanOption) (*Plan[T], error) {
	cfg := newPlanConfig(opts)
	rs, err := Radices(n)
	if err != nil {
		return nil, err
	}
	p := &Plan[T]{n: n, radices: rs, norm: cfg.norm}
	if cfg.codelets {
		p.initCodelets(maxLeaf)
	}
	// Codelet plans only table the generic prefix passes (none at all
	// when the leaf covers n).
	p.tw = map[Direction][][]T{Forward: p.tables(Forward), Inverse: p.tables(Inverse)}
	p.ctx.init(p.newExec)
	return p, nil
}

// newExec allocates one execution context for the plan.
func (p *Plan[T]) newExec() *planExec[T] {
	e := &planExec[T]{scratch: make([]T, p.n)}
	if p.leafN > 0 && p.leafN < p.n {
		e.leafBuf = make([]T, 2*p.leafN)
	}
	return e
}

// N returns the transform size.
func (p *Plan[T]) N() int { return p.n }

// NumPasses returns the number of generic breadth-first passes the plan
// executes. For a codelet plan this counts only the passes ahead of the
// codelet leaf — zero when the leaf covers the whole transform.
func (p *Plan[T]) NumPasses() int { return len(p.radices) }

// PassRadices returns a copy of the generic pass radix sequence (the
// prefix ahead of the codelet leaf, if the plan has one).
func (p *Plan[T]) PassRadices() []int { return append([]int(nil), p.radices...) }

// LeafN returns the size of the plan's codelet leaf, or 0 when the plan
// runs entirely through the generic pass loop.
func (p *Plan[T]) LeafN() int { return p.leafN }

// UsesCodelets reports whether the plan dispatches into generated
// codelet kernels.
func (p *Plan[T]) UsesCodelets() bool { return p.leafN > 0 }

// tables builds the per-pass twiddle tables for dir. The pass over
// sub-transforms of length L uses the table {ω_L^{dir·e}}_{e<L}: pass 0
// holds the N distinct Nth roots of unity, pass 1 the N/r-th roots, and
// so on — the decimation-in-frequency decay the paper exploits in its
// replication scheme (§IV-A).
func (p *Plan[T]) tables(dir Direction) [][]T {
	t := make([][]T, len(p.radices))
	l := p.n
	for pass, r := range p.radices {
		tab := make([]T, l)
		for e := range tab {
			tab[e] = cis[T](float64(dir) * 2 * math.Pi * float64(e) / float64(l))
		}
		t[pass] = tab
		l /= r
	}
	return t
}

// Transform computes the in-place transform of x (len(x) must equal the
// plan size), applying the plan's normalization.
func (p *Plan[T]) Transform(x []T, dir Direction) error {
	if len(x) != p.n {
		return fmt.Errorf("fft: input length %d does not match plan size %d", len(x), p.n)
	}
	e := p.ctx.get()
	p.transform(x, dir, e)
	p.ctx.put(e)
	return nil
}

// transform computes the in-place transform of x (len(x) == p.n) on the
// execution context e, which the caller holds checked out: the entry
// point of batched callers, which check out once for many rows.
func (p *Plan[T]) transform(x []T, dir Direction, e *planExec[T]) {
	if p.leafN == p.n && p.leafN > 0 {
		// Fully covered: one kernel call, in place.
		p.leaf(dir)(x, e.scratch)
		codeletLeafCalls.Add(1)
		applyNorm(x, p.n, dir, p.norm)
		return
	}
	src, dst := x, e.scratch
	s, l := 1, p.n
	tw := p.tw[dir]
	for pass, r := range p.radices {
		stockhamPass(dst, src, s, l, r, tw[pass], dir)
		src, dst = dst, src
		s *= r
		l /= r
	}
	if p.leafN > 0 {
		p.leafStage(src, s, dir, e.leafBuf)
	}
	if &src[0] != &x[0] {
		copy(x, src)
	}
	applyNorm(x, p.n, dir, p.norm)
}

// TransformTo computes the transform of src into dst without modifying
// src. dst and src must not overlap.
func (p *Plan[T]) TransformTo(dst, src []T, dir Direction) error {
	if len(src) != p.n || len(dst) != p.n {
		return fmt.Errorf("fft: buffer lengths (%d, %d) do not match plan size %d", len(dst), len(src), p.n)
	}
	copy(dst, src)
	return p.Transform(dst, dir)
}

// stockhamPass performs one self-sorting DIF pass.
//
// Input layout: src[d + s·(j + k·(L/r))] for digit prefix d ∈ [0,s),
// in-transform index j ∈ [0,L/r), radix leg k ∈ [0,r).
// Output layout: dst[d + m·s + (s·r)·j] for output digit m ∈ [0,r).
// The leg values t_k are combined by an r-point DFT and multiplied by
// the twiddle ω_L^{dir·j·m} (tw[j·m]).
func stockhamPass[T Complex](dst, src []T, s, l, r int, tw []T, dir Direction) {
	lr := l / r
	switch r {
	case 2:
		for j := 0; j < lr; j++ {
			w := tw[j]
			for d := 0; d < s; d++ {
				a := src[d+s*j]
				b := src[d+s*(j+lr)]
				dst[d+s*2*j] = a + b
				dst[d+s*(2*j+1)] = (a - b) * w
			}
		}
	case 4:
		im := T(complex(0, float64(dir)))
		for j := 0; j < lr; j++ {
			w1, w2, w3 := tw[j], tw[2*j], tw[3*j]
			for d := 0; d < s; d++ {
				t0 := src[d+s*j]
				t1 := src[d+s*(j+lr)]
				t2 := src[d+s*(j+2*lr)]
				t3 := src[d+s*(j+3*lr)]
				a, b := t0+t2, t0-t2
				c, e := t1+t3, (t1-t3)*im
				dst[d+s*4*j] = a + c
				dst[d+s*(4*j+1)] = (b + e) * w1
				dst[d+s*(4*j+2)] = (a - c) * w2
				dst[d+s*(4*j+3)] = (b - e) * w3
			}
		}
	case 8:
		im := T(complex(0, float64(dir)))
		h := math.Sqrt2 / 2
		w8 := T(complex(h, float64(dir)*h)) // ω_8^{dir}
		for j := 0; j < lr; j++ {
			for d := 0; d < s; d++ {
				t0 := src[d+s*j]
				t1 := src[d+s*(j+lr)]
				t2 := src[d+s*(j+2*lr)]
				t3 := src[d+s*(j+3*lr)]
				t4 := src[d+s*(j+4*lr)]
				t5 := src[d+s*(j+5*lr)]
				t6 := src[d+s*(j+6*lr)]
				t7 := src[d+s*(j+7*lr)]

				// E = DFT4(t0,t2,t4,t6), O = DFT4(t1,t3,t5,t7).
				a, b := t0+t4, t0-t4
				c, e := t2+t6, (t2-t6)*im
				e0, e1, e2, e3 := a+c, b+e, a-c, b-e
				a, b = t1+t5, t1-t5
				c, e = t3+t7, (t3-t7)*im
				o0, o1, o2, o3 := a+c, b+e, a-c, b-e

				o1 *= w8
				o2 *= im      // ω_8^{2·dir} = dir·i
				o3 *= im * w8 // ω_8^{3·dir}

				y0, y4 := e0+o0, e0-o0
				y1, y5 := e1+o1, e1-o1
				y2, y6 := e2+o2, e2-o2
				y3, y7 := e3+o3, e3-o3

				base := d + s*8*j
				dst[base] = y0
				dst[base+s] = y1 * tw[j]
				dst[base+2*s] = y2 * tw[2*j]
				dst[base+3*s] = y3 * tw[3*j]
				dst[base+4*s] = y4 * tw[4*j]
				dst[base+5*s] = y5 * tw[5*j]
				dst[base+6*s] = y6 * tw[6*j]
				dst[base+7*s] = y7 * tw[7*j]
			}
		}
	}
}
