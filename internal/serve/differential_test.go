package serve

// Differential contract: a server response is bit-identical to calling
// the plan directly — across a grid of sizes, ranks, element types and
// directions, through the JSON wire format. This is what makes the
// service a drop-in boundary in front of the library: clients migrating
// from direct fft calls observe exactly the same bits. (The coalesced-
// batch half of the contract lives in coalesce_test.go.)

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"xmtfft/internal/fft"
)

// directRef computes the reference output for any validated request via
// the same plan constructors the server uses, but called directly.
func directRef[C fft.Complex](t *testing.T, q *Request, in []C) []C {
	t.Helper()
	dir, err := q.direction()
	if err != nil {
		t.Fatal(err)
	}
	norm, err := q.normalization()
	if err != nil {
		t.Fatal(err)
	}
	out := append([]C(nil), in...)
	switch {
	case q.Batch != nil:
		if err := batchTransform(out, q.Dims[0], q.Batch, dir, norm); err != nil {
			t.Fatal(err)
		}
	case len(q.Dims) == 1:
		plan, err := fft.CachedPlan[C](q.Dims[0], fft.WithNorm(norm))
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Transform(out, dir); err != nil {
			t.Fatal(err)
		}
	case len(q.Dims) == 2:
		if err := plan2DTransform(out, q.Dims, dir, norm); err != nil {
			t.Fatal(err)
		}
	default:
		if err := plan3DTransform(out, q.Dims, dir, norm); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// fillSignal writes a deterministic non-trivial signal.
func fillSignal(data []float64, seed int) {
	for i := range data {
		// Keep values exactly float32-representable so complex64
		// payloads survive the wire bit-identically.
		data[i] = float64(float32(math.Cos(float64(seed*7919+i*13)) * 2.5))
	}
}

func TestServerMatchesDirectTransformBitwise(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	var grid []*Request
	for _, dims := range [][]int{{8}, {64}, {256}, {8, 16}, {16, 16}, {4, 8, 8}} {
		total := 1
		for _, d := range dims {
			total *= d
		}
		for _, dtype := range []string{"complex64", "complex128"} {
			for _, dir := range []string{"forward", "inverse"} {
				data := make([]float64, 2*total)
				fillSignal(data, total+len(dims))
				grid = append(grid, &Request{Dims: dims, Dtype: dtype, Dir: dir, Data: data})
			}
		}
	}
	// Advanced layouts: contiguous rows, padded rows, interleaved.
	for _, b := range []BatchSpec{{HowMany: 4, Stride: 1, Dist: 16}, {HowMany: 3, Stride: 1, Dist: 20}, {HowMany: 4, Stride: 4, Dist: 1}} {
		b := b
		need := (b.HowMany-1)*b.Dist + 15*b.Stride + 1
		data := make([]float64, 2*need)
		fillSignal(data, need)
		grid = append(grid, &Request{Dims: []int{16}, Dtype: "complex128", Dir: "forward", Batch: &b, Data: data})
	}

	for _, q := range grid {
		name := fmt.Sprintf("%v/%s/%s/batch=%v", q.Dims, q.Dtype, q.Dir, q.Batch != nil)
		resp, out, eb := postJSON(t, ts, q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%+v)", name, resp.StatusCode, eb)
		}
		if q.Dtype == "complex64" {
			want := directRef(t, q, toComplex[complex64](nil, q.Data))
			got := toComplex[complex64](nil, out.Data)
			for i := range want {
				if math.Float32bits(real(got[i])) != math.Float32bits(real(want[i])) ||
					math.Float32bits(imag(got[i])) != math.Float32bits(imag(want[i])) {
					t.Fatalf("%s: element %d differs: got %v want %v", name, i, got[i], want[i])
				}
			}
		} else {
			want := directRef(t, q, toComplex[complex128](nil, q.Data))
			got := toComplex[complex128](nil, out.Data)
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("%s: element %d differs: got %v want %v", name, i, got[i], want[i])
				}
			}
		}
	}
}
