package fft

import (
	"sync/atomic"

	"xmtfft/internal/fft/codelet"
)

// Codelet leaves: plans for covered sizes (codelet.MinN..codelet.MaxN)
// dispatch into the generated kernels of internal/fft/codelet instead of
// the generic pass loop — the genfft/FFTW composition. A covered size
// runs as one leaf call; a larger size runs generic Stockham passes
// until the remaining sub-transform length is covered and finishes each
// strided sub-transform through the MaxN-point leaf (see
// Plan.leafStage). WithCodelets toggles the whole mechanism per plan.

// codeletLeafCalls counts generated-kernel invocations process-wide,
// for observability surfaces (the xmtserve metrics export it).
var codeletLeafCalls atomic.Uint64

// CodeletLeafCalls returns the number of codelet-leaf invocations since
// process start. The counter is monotone and concurrency-safe.
func CodeletLeafCalls() uint64 { return codeletLeafCalls.Load() }

// CodeletSizes returns the transform sizes with generated kernels, in
// ascending order.
func CodeletSizes() []int { return codelet.Sizes() }

// codeletKernel returns the generated kernel for (n, dir) matched to
// the element type T, or nil when n is uncovered or T is not one of the
// plain complex types the generator emits for.
func codeletKernel[T Complex](n int, dir Direction) func(x, scratch []T) {
	inv := dir == Inverse
	// The type assertions select the kernel family whose signature
	// matches the instantiated T — a compile-time-shaped dispatch with
	// no per-call boxing. A named complex type matches neither and
	// falls back to the generic pass loop.
	if f, ok := any(codelet.Kernel64(n, inv)).(func(x, scratch []T)); ok {
		return f
	}
	if f, ok := any(codelet.Kernel128(n, inv)).(func(x, scratch []T)); ok {
		return f
	}
	return nil
}

// initCodelets resolves the plan's codelet leaf: the whole transform
// when n <= maxLeaf, otherwise the maxLeaf-point leaf with a generic
// radix prefix ahead (Radices of the ratio). Leaves the plan untouched
// when no kernel matches the leaf size or element type.
func (p *Plan[T]) initCodelets(maxLeaf int) {
	leafN := min(p.n, maxLeaf)
	fwd := codeletKernel[T](leafN, Forward)
	inv := codeletKernel[T](leafN, Inverse)
	if fwd == nil || inv == nil {
		return
	}
	if leafN == p.n {
		p.leafN, p.leafFwd, p.leafInv = leafN, fwd, inv
		p.radices = nil
		return
	}
	prefix, err := Radices(p.n / leafN)
	if err != nil {
		return
	}
	p.leafN, p.leafFwd, p.leafInv = leafN, fwd, inv
	p.radices = prefix
}

// leaf returns the direction's kernel.
func (p *Plan[T]) leaf(dir Direction) func(x, scratch []T) {
	if dir == Inverse {
		return p.leafInv
	}
	return p.leafFwd
}

// leafStage finishes a composed transform. After the generic prefix
// passes at state (s, leafN) the buffer holds s interleaved
// sub-transforms: element j of sub-transform d lives at cur[d+s·j], and
// the final output of the remaining passes would be exactly
// cur[d+s·k] = DFT(sub_d)[k] — the Stockham invariant. Each strided
// sub-transform is gathered, run through the leaf kernel, and
// scattered back to the same indices; leafBuf (2·leafN elements) holds
// the gathered sub-transform and the kernel's scratch.
func (p *Plan[T]) leafStage(cur []T, s int, dir Direction, leafBuf []T) {
	leaf := p.leaf(dir)
	buf, scratch := leafBuf[:p.leafN], leafBuf[p.leafN:]
	for d := 0; d < s; d++ {
		for j := 0; j < p.leafN; j++ {
			buf[j] = cur[d+s*j]
		}
		leaf(buf, scratch)
		for j := 0; j < p.leafN; j++ {
			cur[d+s*j] = buf[j]
		}
	}
	codeletLeafCalls.Add(uint64(s))
}
