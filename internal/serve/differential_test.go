package serve

// Differential contract: a server response is bit-identical to calling
// the plan directly — across a grid of sizes, ranks, element types and
// directions, through the JSON wire format, and for concurrent requests
// sharing one plan. This is what makes the service a drop-in boundary
// in front of the library: clients migrating from direct fft calls
// observe exactly the same bits.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"xmtfft/internal/fft"
)

// transformer is the method every plan kind shares.
type transformer[C fft.Complex] interface {
	Transform(x []C, dir fft.Direction) error
}

// directRef computes the reference output for any validated request by
// calling the cached plans the server uses directly.
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
	d, opt := q.Dims, fft.WithNorm(norm)
	run := func(plan transformer[C], err error) {
		t.Helper()
		if err == nil {
			err = plan.Transform(out, dir)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	switch {
	case q.Batch != nil:
		plan, err := fft.CachedPlan[C](d[0], opt)
		if err != nil {
			t.Fatal(err)
		}
		run(fft.NewBatchPlanOf(plan, q.Batch.HowMany, q.Batch.Stride, q.Batch.Dist))
	case len(d) == 1:
		run(fft.CachedPlan[C](d[0], opt))
	case len(d) == 2:
		run(fft.CachedPlan2D[C](d[0], d[1], opt))
	default:
		run(fft.CachedPlan3D[C](d[0], d[1], d[2], opt))
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

// TestConcurrentSameKeyBitIdentical sends clients at once, each with
// its own payload of one shape, so their handlers transform on one
// shared cached plan at the same time. Every response must match that
// plan called directly, bit for bit: no request's samples or scratch
// leak into another's.
func TestConcurrentSameKeyBitIdentical(t *testing.T) {
	const (
		n       = 64
		clients = 8
	)
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	reqs := make([]*Request, clients)
	docs := make([][]byte, clients)
	for c := range reqs {
		data := make([]float64, 2*n)
		fillSignal(data, c+1)
		reqs[c] = &Request{Dims: []int{n}, Dtype: "complex64", Dir: "forward", Data: data}
		var err error
		if docs[c], err = json.Marshal(reqs[c]); err != nil {
			t.Fatal(err)
		}
	}
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range docs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			resp, err := ts.Client().Post(ts.URL+"/v1/transform", "application/json", bytes.NewReader(docs[c]))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			bodies[c], errs[c] = io.ReadAll(resp.Body)
			if errs[c] == nil && resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("status %d: %s", resp.StatusCode, bodies[c])
			}
		}(c)
	}
	close(start)
	wg.Wait()

	for c, q := range reqs {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		var out Response
		if err := json.Unmarshal(bodies[c], &out); err != nil {
			t.Fatalf("client %d: decode response: %v", c, err)
		}
		want := directRef(t, q, toComplex[complex64](nil, q.Data))
		got := toComplex[complex64](nil, out.Data)
		if len(got) != len(want) {
			t.Fatalf("client %d: %d elements back, want %d", c, len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(real(got[i])) != math.Float32bits(real(want[i])) ||
				math.Float32bits(imag(got[i])) != math.Float32bits(imag(want[i])) {
				t.Fatalf("client %d: element %d differs from the direct plan: got %v want %v", c, i, got[i], want[i])
			}
		}
	}
}
