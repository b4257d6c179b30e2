package fft

// Cache-blocked fused transform rounds.
//
// Every round of the multi-dimensional transforms FFTs the rows of a
// rows×n matrix and stores the result transposed (the §VI-B axis
// rotation collapses to exactly this: with R = d0·d1 the 3D rotation
// index (k·d0+i)·d1+j equals k·R + r for the flattened row r = i·d1+j).
// Written naively, each transformed element lands rows elements away
// from its neighbour — one touched cache line per element, which is
// what caps the FFTW-substitute baseline. The kernel below instead
// FFTs a block of B rows into a contiguous tile and copies the tile
// out in B×B sub-tiles, so every write burst covers B contiguous
// elements of dst and the strided reads stay inside the cached tile.

// DefaultBlockSize is the tile edge B of the multi-dimensional plans'
// fused rounds. 128 keeps the copy-out sub-tile within L2 while making
// every write burst a kilobyte of contiguous destination (see
// BenchmarkBlockedFused* in this package for the naive comparison).
const DefaultBlockSize = 128

// blockedRowsTranspose FFTs rows lo..hi of src (a rows×n row-major
// matrix) and writes each transformed row r into column r of dst (an
// n×rows matrix): dst[k·rows+r] = FFT(src[r·n:(r+1)·n])[k], the fused
// row-FFT+rotation round, tiled with edge bsize. tile needs capacity
// for bsize·n elements; plan is the n-point row plan, of which the call
// checks out one execution context for the whole range. Concurrent
// calls on disjoint [lo,hi) ranges write disjoint elements of dst.
func blockedRowsTranspose[T Complex](dst, src []T, rows, n, lo, hi, bsize int, plan *Plan[T], tile []T, dir Direction) {
	e := plan.ctx.get()
	defer plan.ctx.put(e)
	for r0 := lo; r0 < hi; r0 += bsize {
		rb := min(bsize, hi-r0)
		// FFT rb rows into the contiguous tile.
		for rr := 0; rr < rb; rr++ {
			row := tile[rr*n : (rr+1)*n]
			copy(row, src[(r0+rr)*n:(r0+rr+1)*n])
			plan.transform(row, dir, e)
		}
		// Copy the tile out transposed, one B×B sub-tile at a time:
		// the inner loop writes rb contiguous elements of dst and walks
		// the tile column by induction instead of a multiply per element.
		for k0 := 0; k0 < n; k0 += bsize {
			kb := min(bsize, n-k0)
			for kk := 0; kk < kb; kk++ {
				drow := dst[(k0+kk)*rows+r0 : (k0+kk)*rows+r0+rb]
				ti := k0 + kk
				for rr := range drow {
					drow[rr] = tile[ti]
					ti += n
				}
			}
		}
	}
}
