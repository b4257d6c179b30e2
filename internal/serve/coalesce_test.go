package serve

// The coalescing contract of the acceptance criteria: N concurrent
// same-size 1D requests execute in fewer than N plan passes, and every
// coalesced output is bit-identical to serial execution of the same
// request — batching is a pure scheduling change, never a numerical one.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"xmtfft/internal/fft"
)

func TestCoalescingFewerPassesBitIdentical(t *testing.T) {
	const (
		n       = 64
		clients = 8
	)
	// A generous straggler window makes the batch formation
	// deterministic enough to assert on: every client fires within
	// the first window of the first-arriving request.
	srv := New(Config{MaxBatch: clients, CoalesceWait: 250 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	// Distinct payload per client so cross-request data bleed would be
	// caught, not masked.
	inputs := make([][]float64, clients)
	for c := range inputs {
		data := make([]float64, 2*n)
		for i := range data {
			data[i] = float64(float32(math.Sin(float64(c*1000+i)) * 3))
		}
		inputs[c] = data
	}

	// Fire all clients concurrently through a start barrier.
	type reply struct {
		code    int
		out     *Response
		idx     int
		elapsed time.Duration
	}
	start := make(chan struct{})
	replies := make(chan reply, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			begin := time.Now()
			resp, out, _ := postJSON(t, ts, &Request{
				Dims: []int{n}, Dtype: "complex64", Dir: "forward", Data: inputs[c],
			})
			replies <- reply{code: resp.StatusCode, out: out, idx: c, elapsed: time.Since(begin)}
		}(c)
	}
	close(start)
	wg.Wait()
	close(replies)

	sawBatched := 0
	for r := range replies {
		if r.code != http.StatusOK {
			t.Fatalf("client %d: status %d", r.idx, r.code)
		}
		if r.out.Batched > 1 {
			sawBatched++
		}
		// Bit-identity against serial execution of the same request.
		want := direct1D(t, n, toComplex[complex64](nil, inputs[r.idx]), fft.Forward)
		got := r.out.Data
		for i, w := range want {
			reBits := math.Float32bits(float32(got[2*i]))
			imBits := math.Float32bits(float32(got[2*i+1]))
			if reBits != math.Float32bits(real(w)) || imBits != math.Float32bits(imag(w)) {
				t.Fatalf("client %d: coalesced output differs from serial at element %d: got (%g,%g) want %v",
					r.idx, i, got[2*i], got[2*i+1], w)
			}
		}
	}

	exp := scrape(t, srv)
	passes, ok := exp.Value("xmtserve_plan_passes_total", nil)
	if !ok {
		t.Fatal("xmtserve_plan_passes_total missing from exposition")
	}
	if int(passes) >= clients {
		t.Fatalf("%d concurrent same-size requests took %g plan passes, want < %d (coalescing)", clients, passes, clients)
	}
	coal, _ := exp.Value("xmtserve_requests_coalesced_total", nil)
	if coal < 2 {
		t.Fatalf("xmtserve_requests_coalesced_total = %g, want >= 2", coal)
	}
	if sawBatched < 2 {
		t.Fatalf("only %d responses reported batched > 1", sawBatched)
	}
	t.Logf("%d requests -> %g plan passes, %g coalesced", clients, passes, coal)
}

// TestCoalescingDisjointKeysDoNotMix shows the coalescer's keying:
// different sizes, directions and dtypes land in different pools and
// never share a pass.
func TestCoalescingDisjointKeysDoNotMix(t *testing.T) {
	srv := New(Config{MaxBatch: 8, CoalesceWait: 100 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	reqs := []*Request{
		{Dims: []int{16}, Dtype: "complex64", Dir: "forward", Data: impulse(16)},
		{Dims: []int{32}, Dtype: "complex64", Dir: "forward", Data: impulse(32)},
		{Dims: []int{16}, Dtype: "complex128", Dir: "forward", Data: impulse(16)},
		{Dims: []int{16}, Dtype: "complex64", Dir: "inverse", Data: impulse(16)},
	}
	var wg sync.WaitGroup
	codes := make([]int, len(reqs))
	batched := make([]int, len(reqs))
	for i, q := range reqs {
		wg.Add(1)
		go func(i int, q *Request) {
			defer wg.Done()
			resp, out, _ := postJSON(t, ts, q)
			codes[i] = resp.StatusCode
			if out != nil {
				batched[i] = out.Batched
			}
		}(i, q)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if batched[i] != 1 {
			t.Fatalf("request %d coalesced across keys (batched=%d)", i, batched[i])
		}
	}
	exp := scrape(t, srv)
	if pools, ok := exp.Value("xmtserve_pools", nil); !ok || pools != 4 {
		t.Fatalf("xmtserve_pools = %g, want 4 distinct pools", pools)
	}
}

// TestResponseJSONShape locks the wire shape the clients depend on.
func TestResponseJSONShape(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	body, _ := json.Marshal(&Request{Dims: []int{8}, Dtype: "complex64", Dir: "forward", Data: impulse(8)})
	resp, err := ts.Client().Post(ts.URL+"/v1/transform", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"dims", "dtype", "dir", "data", "batched"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("response missing %q", key)
		}
	}
}
