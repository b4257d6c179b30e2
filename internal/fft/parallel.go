package fft

import "sync"

// Host-parallel execution: the coarse-grained strategy of §IV-A (one or
// more rows per thread, each applying a serial row FFT), which is how
// parallel FFTW runs on a multicore host. This is the engine behind the
// FFTW-substitute baseline in internal/baseline.

// fusedRound runs one fused row-FFT+rotation round over the rows×n row
// matrix with tile edge bsize and row plan plan: inline when there is
// one tile, otherwise splitting the row space across len(tiles)
// workers. Ranges are block-aligned (so tiles never straddle workers)
// unless there are fewer blocks than workers, in which case rows are
// split directly; either way the per-worker [lo,hi) ranges are
// disjoint.
func fusedRound[T Complex](dst, src []T, rows, n, bsize int, plan *Plan[T], tiles [][]T, dir Direction) {
	workers := len(tiles)
	if workers == 1 {
		blockedRowsTranspose(dst, src, rows, n, 0, rows, bsize, plan, tiles[0], dir)
		return
	}
	nblocks := (rows + bsize - 1) / bsize
	bounds := func(w int) (int, int) {
		if nblocks >= workers {
			return min(nblocks*w/workers*bsize, rows), min(nblocks*(w+1)/workers*bsize, rows)
		}
		return rows * w / workers, rows * (w + 1) / workers
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := bounds(w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			blockedRowsTranspose(dst, src, rows, n, lo, hi, bsize, plan, tiles[w], dir)
		}(w, lo, hi)
	}
	wg.Wait()
}
