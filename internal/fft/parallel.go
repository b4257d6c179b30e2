package fft

import (
	"fmt"
	"runtime"
	"sync"
)

// Host-parallel execution: the coarse-grained strategy of §IV-A (one or
// more rows per thread, each applying a serial row FFT), which is how
// parallel FFTW runs on a multicore host. This is the engine behind the
// FFTW-substitute baseline in internal/baseline.

// Clone returns a plan sharing this plan's immutable twiddle tables and
// codelet kernels (built at construction) but owning private scratch —
// including the leaf gather buffer — so the clone can run concurrently
// with the original, and Clone itself is safe to call from any
// goroutine.
func (p *Plan[T]) Clone() *Plan[T] {
	c := &Plan[T]{
		n:       p.n,
		radices: p.radices,
		norm:    p.norm,
		tw:      p.tw,
		scratch: make([]T, p.n),
		leafN:   p.leafN,
		leafFwd: p.leafFwd,
		leafInv: p.leafInv,
	}
	if p.leafBuf != nil {
		c.leafBuf = make([]T, len(p.leafBuf))
	}
	return c
}

// fusedRound runs one fused row-FFT+rotation round over the rows×n row
// matrix with tile edge bsize: inline when there is one worker plan,
// otherwise splitting the row space across the worker plans. Ranges are
// block-aligned (so tiles never straddle workers) unless there are
// fewer blocks than workers, in which case rows are split directly;
// either way the per-worker [lo,hi) ranges are disjoint.
func fusedRound[T Complex](dst, src []T, rows, n, bsize int, plans []*Plan[T], tiles [][]T, dir Direction) error {
	workers := len(plans)
	if workers == 1 {
		return blockedRowsTranspose(dst, src, rows, n, 0, rows, bsize, plans[0], tiles[0], dir)
	}
	nblocks := (rows + bsize - 1) / bsize
	bounds := func(w int) (int, int) {
		if nblocks >= workers {
			return min(nblocks*w/workers*bsize, rows), min(nblocks*(w+1)/workers*bsize, rows)
		}
		return rows * w / workers, rows * (w + 1) / workers
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo, hi := bounds(w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = blockedRowsTranspose(dst, src, rows, n, lo, hi, bsize, plans[w], tiles[w], dir)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ParallelRows1D applies plan-sized transforms to each of the rows of a
// flat buffer concurrently; the generic building block used by the
// baseline's batched 1D measurements. The plan is cloned per worker.
func ParallelRows1D[T Complex](x []T, plan *Plan[T], dir Direction, workers int) error {
	n := plan.N()
	if len(x)%n != 0 {
		return fmt.Errorf("fft: buffer length %d not a multiple of row size %d", len(x), n)
	}
	rows := len(x) / n
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		for r := 0; r < rows; r++ {
			if err := plan.Transform(x[r*n:(r+1)*n], dir); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo := rows * w / workers
		hi := rows * (w + 1) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			p := plan.Clone()
			for r := lo; r < hi; r++ {
				if err := p.Transform(x[r*n:(r+1)*n], dir); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
