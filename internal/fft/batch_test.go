package fft

// BatchPlan edge cases the basic contiguous/interleaved tests in
// fft_test.go do not reach: constructor error paths, exact MinLen
// boundary buffers, padded and aliased stride/dist layouts compared
// element-for-element against per-row serial execution, and the
// NewBatchPlanOf plan-wrapping constructor the serving layer uses.

import (
	"math"
	"testing"
)

func TestNewBatchPlanErrorPaths(t *testing.T) {
	cases := []struct {
		name                  string
		n, howMany, stride, d int
	}{
		{"zero_howmany", 32, 0, 1, 32},
		{"negative_howmany", 32, -1, 1, 32},
		{"zero_stride", 32, 2, 0, 32},
		{"negative_stride", 32, 2, -3, 32},
		{"zero_dist", 32, 2, 1, 0},
		{"negative_dist", 32, 2, 1, -32},
		{"non_pow2_size", 31, 2, 1, 31},
		{"zero_size", 0, 2, 1, 1},
	}
	for _, tc := range cases {
		if _, err := NewBatchPlan[complex128](tc.n, tc.howMany, tc.stride, tc.d); err == nil {
			t.Errorf("%s: NewBatchPlan(%d, %d, %d, %d) accepted", tc.name, tc.n, tc.howMany, tc.stride, tc.d)
		}
	}
}

func TestNewBatchPlanOfGeometryErrors(t *testing.T) {
	p, err := NewPlan[complex64](16)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range [][3]int{{0, 1, 16}, {2, 0, 16}, {2, 1, 0}, {-1, -1, -1}} {
		if _, err := NewBatchPlanOf(p, g[0], g[1], g[2]); err == nil {
			t.Errorf("NewBatchPlanOf(%v) accepted", g)
		}
	}
}

// TestNewBatchPlanOfSharesPlan verifies the wrapper executes through
// the exact plan it was given: outputs are bit-identical to calling
// that plan directly, row by row.
func TestNewBatchPlanOfSharesPlan(t *testing.T) {
	const n, rows = 16, 3
	p, err := NewPlan[complex128](n, WithNorm(NormUnitary))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBatchPlanOf(p, rows, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, rows*n)
	want := make([]complex128, rows*n)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)), math.Cos(float64(3*i)))
		want[i] = x[i]
	}
	for r := 0; r < rows; r++ {
		if err := p.Transform(want[r*n:(r+1)*n], Forward); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("batched output differs from per-row plan at %d: %v vs %v", i, x[i], want[i])
		}
	}
}

// TestBatchPlanMinLenBoundary runs layouts on buffers of exactly MinLen
// elements — the tightest legal buffer — and one element short of it.
func TestBatchPlanMinLenBoundary(t *testing.T) {
	layouts := []struct {
		name                  string
		n, howMany, stride, d int
	}{
		{"contiguous", 8, 4, 1, 8},
		{"padded_rows", 8, 3, 1, 11},
		{"interleaved", 8, 4, 4, 1},
		{"strided_padded", 4, 2, 3, 16},
	}
	for _, l := range layouts {
		bp, err := NewBatchPlan[complex128](l.n, l.howMany, l.stride, l.d, WithNorm(NormNone))
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		min := bp.MinLen()
		wantMin := (l.howMany-1)*l.d + (l.n-1)*l.stride + 1
		if min != wantMin {
			t.Fatalf("%s: MinLen = %d, want %d", l.name, min, wantMin)
		}
		if err := bp.Transform(make([]complex128, min), Forward); err != nil {
			t.Errorf("%s: exact MinLen buffer rejected: %v", l.name, err)
		}
		if err := bp.Transform(make([]complex128, min-1), Forward); err == nil {
			t.Errorf("%s: MinLen-1 buffer accepted", l.name)
		}
	}
}

// TestBatchPlanPaddedRowsPreserveGaps checks dist > n layouts: the
// padding elements between rows must come through a transform
// untouched.
func TestBatchPlanPaddedRowsPreserveGaps(t *testing.T) {
	const n, rows, dist = 8, 3, 13 // 5 pad elements between rows
	bp, err := NewBatchPlan[complex128](n, rows, 1, dist, WithNorm(NormNone))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, bp.MinLen())
	const sentinel = complex(7e7, -7e7)
	for i := range x {
		x[i] = sentinel
	}
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			x[r*dist+j] = complex(float64(r+1), float64(j))
		}
	}
	if err := bp.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	inRow := func(i int) bool {
		for r := 0; r < rows; r++ {
			if i >= r*dist && i < r*dist+n {
				return true
			}
		}
		return false
	}
	for i := range x {
		if !inRow(i) && x[i] != sentinel {
			t.Fatalf("pad element %d clobbered: %v", i, x[i])
		}
	}
}

// TestBatchPlanStrideDistAliasing covers footprint-interleaved layouts
// (stride > 1, dist = 1): transform t owns indices t + j*stride, the
// transforms' footprints interleave tightly but never collide, and the
// result must match gathering each channel, transforming it serially
// and scattering it back.
func TestBatchPlanStrideDistAliasing(t *testing.T) {
	const n, channels = 16, 4 // stride=channels, dist=1: fully interleaved
	bp, err := NewBatchPlan[complex128](n, channels, channels, 1, WithNorm(NormNone))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan[complex128](n, WithNorm(NormNone))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, bp.MinLen())
	for i := range x {
		x[i] = complex(math.Sin(float64(i)*0.7), float64(i%5)-2)
	}
	want := append([]complex128(nil), x...)
	row := make([]complex128, n)
	for c := 0; c < channels; c++ {
		for j := 0; j < n; j++ {
			row[j] = want[c+j*channels]
		}
		if err := p.Transform(row, Forward); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			want[c+j*channels] = row[j]
		}
	}
	if err := bp.Transform(x, Forward); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("interleaved batch differs from gather/scatter reference at %d: %v vs %v", i, x[i], want[i])
		}
	}
}
