package fft

import (
	"fmt"
	"math/rand"
	"testing"
)

// requireIdentical fails unless got and want agree bit for bit.
func requireIdentical[T Complex](t *testing.T, label string, got, want []T) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d is %v, naive oracle %v", label, i, got[i], want[i])
		}
	}
}

// checkBlockedRound runs the rows×n round blocked at each edge in
// blocks and naively, in both directions, requiring identical output.
func checkBlockedRound(t *testing.T, rng *rand.Rand, rows, n int, blocks []int) {
	t.Helper()
	plan, err := NewPlan[complex128](n, WithNorm(NormNone))
	if err != nil {
		t.Fatal(err)
	}
	src := randVec128(rng, rows*n)
	for _, dir := range []Direction{Forward, Inverse} {
		want := make([]complex128, rows*n)
		if err := rowsAndRotate(want, src, rows, n, plan, dir); err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			got := make([]complex128, rows*n)
			blockedRowsTranspose(got, src, rows, n, 0, rows, b, plan, make([]complex128, b*n), dir)
			requireIdentical(t, fmt.Sprintf("%dx%d B=%d dir=%d", rows, n, b, dir), got, want)
		}
	}
}

// The blocked kernel must reproduce the naive round bit for bit at
// every tile edge, including edges that leave partial row blocks and
// partial sub-tiles (B = 3, 5, 7) and edges beyond the matrix.
func TestBlockedRoundMatchesNaive2D(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, dims := range [][2]int{{4, 4}, {8, 64}, {64, 8}, {2, 128}, {128, 128}} {
		// Both rounds of a d0×d1 transform: rows of d1, then rows of d0.
		for _, m := range [][2]int{{dims[0], dims[1]}, {dims[1], dims[0]}} {
			checkBlockedRound(t, rng, m[0], m[1], []int{DefaultBlockSize, 2, 3, 5, 8, 32, 1024})
		}
	}
}

func TestBlockedRoundMatchesNaive3D(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dims := range [][3]int{{4, 4, 4}, {2, 8, 32}, {32, 8, 2}, {16, 16, 16}} {
		// The three rounds' row matrices: rows of d2, then d1, then d0.
		total := dims[0] * dims[1] * dims[2]
		for _, n := range []int{dims[2], dims[1], dims[0]} {
			checkBlockedRound(t, rng, total/n, n, []int{DefaultBlockSize, 2, 3, 7, 32})
		}
	}
}

func TestBlockedRowsTransposeRangePartition(t *testing.T) {
	// Covering [0,rows) with arbitrary disjoint sub-ranges must equal
	// one full-range call — the property the parallel round relies on.
	rng := rand.New(rand.NewSource(42))
	const rows, n, B = 37, 16, 8
	src := randVec128(rng, rows*n)
	plan, err := NewPlan[complex128](n, WithNorm(NormNone))
	if err != nil {
		t.Fatal(err)
	}
	tile := make([]complex128, B*n)
	want := make([]complex128, rows*n)
	blockedRowsTranspose(want, src, rows, n, 0, rows, B, plan, tile, Forward)
	got := make([]complex128, rows*n)
	for _, cuts := range [][]int{{0, 37}, {0, 8, 37}, {0, 5, 11, 30, 37}} {
		for i := range got {
			got[i] = 0
		}
		for c := 0; c+1 < len(cuts); c++ {
			blockedRowsTranspose(got, src, rows, n, cuts[c], cuts[c+1], B, plan, tile, Forward)
		}
		if e := relErr(got, want); e > tol128 {
			t.Errorf("cuts %v: partitioned result differs by %g", cuts, e)
		}
	}
}

// TestParallelPlansBlockedMatchSerial splits each round of an 8×16×32
// transform across worker counts around and beyond the block count, at
// several tile edges, and requires the naive round's output exactly.
func TestParallelPlansBlockedMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const total = 8 * 16 * 32
	for _, n := range []int{32, 16, 8} {
		rows := total / n
		plan, err := NewPlan[complex128](n, WithNorm(NormNone))
		if err != nil {
			t.Fatal(err)
		}
		src := randVec128(rng, total)
		want := make([]complex128, total)
		if err := rowsAndRotate(want, src, rows, n, plan, Forward); err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{1, 4, 32} {
			for _, workers := range []int{1, 3, 7, 64} {
				tiles := make([][]complex128, workers)
				for w := range tiles {
					tiles[w] = make([]complex128, b*n)
				}
				got := make([]complex128, total)
				fusedRound(got, src, rows, n, b, plan, tiles, Forward)
				requireIdentical(t, fmt.Sprintf("%dx%d B=%d workers=%d", rows, n, b, workers), got, want)
			}
		}
	}
}

// checkMatchesNaive transforms x in both directions under every
// normalization, at 1 and 4 workers, through a plan built by mk, and
// requires the naive-round oracle's output bit for bit.
func checkMatchesNaive[T Complex](t *testing.T, label string, x []T,
	mk func(...PlanOption) (func([]T, Direction) error, *rotor[T], error)) {
	t.Helper()
	for _, norm := range []Normalization{NormNone, NormByN, NormUnitary} {
		for _, workers := range []int{1, 4} {
			transform, r, err := mk(WithNorm(norm), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			for _, dir := range []Direction{Forward, Inverse} {
				want := append([]T(nil), x...)
				if err := naiveTransform(r, want, make([]T, len(x)), dir); err != nil {
					t.Fatal(err)
				}
				got := append([]T(nil), x...)
				if err := transform(got, dir); err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("%s norm=%d workers=%d dir=%d", label, norm, workers, dir), got, want)
			}
		}
	}
}

func plan2DMaker[T Complex](d0, d1 int) func(...PlanOption) (func([]T, Direction) error, *rotor[T], error) {
	return func(opts ...PlanOption) (func([]T, Direction) error, *rotor[T], error) {
		p, err := NewPlan2D[T](d0, d1, opts...)
		if err != nil {
			return nil, nil, err
		}
		return p.Transform, &p.r, nil
	}
}

func plan3DMaker[T Complex](d0, d1, d2 int) func(...PlanOption) (func([]T, Direction) error, *rotor[T], error) {
	return func(opts ...PlanOption) (func([]T, Direction) error, *rotor[T], error) {
		p, err := NewPlan3D[T](d0, d1, d2, opts...)
		if err != nil {
			return nil, nil, err
		}
		return p.Transform, &p.r, nil
	}
}

// TestMultiDimMatchesNaiveOracle covers every 2D/3D shape the plan
// tests exercise, for both element types, both directions and every
// normalization, at 1 and 4 workers: blocking and the parallel split
// change the order rows are processed in, never a row's arithmetic, so
// Plan2D and Plan3D must reproduce the naive round bit for bit.
func TestMultiDimMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, d := range [][2]int{{4, 4}, {8, 16}, {16, 8}, {2, 32}, {32, 64}, {32, 16}, {64, 32},
		{8, 64}, {64, 8}, {2, 128}, {128, 128}, {8, 8}, {64, 64}} {
		label := fmt.Sprintf("%dx%d", d[0], d[1])
		checkMatchesNaive(t, label+" complex64", randVec64(rng, d[0]*d[1]), plan2DMaker[complex64](d[0], d[1]))
		checkMatchesNaive(t, label+" complex128", randVec128(rng, d[0]*d[1]), plan2DMaker[complex128](d[0], d[1]))
	}
	for _, d := range [][3]int{{4, 4, 4}, {2, 4, 8}, {8, 4, 2}, {8, 8, 8}, {16, 16, 16}, {4, 8, 2},
		{16, 8, 32}, {2, 8, 32}, {32, 8, 2}, {8, 16, 32}, {16, 8, 16}, {8, 8, 16}, {4, 8, 16}} {
		label := fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2])
		checkMatchesNaive(t, label+" complex64", randVec64(rng, d[0]*d[1]*d[2]), plan3DMaker[complex64](d[0], d[1], d[2]))
		checkMatchesNaive(t, label+" complex128", randVec128(rng, d[0]*d[1]*d[2]), plan3DMaker[complex128](d[0], d[1], d[2]))
	}
}
