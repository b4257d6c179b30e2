package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xmtfft/internal/fft"
	"xmtfft/internal/metrics"
)

// postJSON fires one request document and decodes the result.
func postJSON(t *testing.T, ts *httptest.Server, q *Request) (*http.Response, *Response, *errorBody) {
	t.Helper()
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/transform", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var out Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		return resp, &out, nil
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decode error body (status %d): %v", resp.StatusCode, err)
	}
	return resp, nil, &eb
}

// impulse returns the interleaved unit impulse of n complex elements:
// its transform is all-ones, easy to eyeball when a test fails.
func impulse(n int) []float64 {
	data := make([]float64, 2*n)
	data[0] = 1
	return data
}

func TestTransform1DForwardInverseRoundTrip(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	const n = 16
	in := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		in[2*i] = float64(i%5) - 2
		in[2*i+1] = float64(i%3) - 1
	}
	resp, fwd, _ := postJSON(t, ts, &Request{Dims: []int{n}, Dtype: "complex128", Dir: "forward", Data: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forward status %d", resp.StatusCode)
	}
	if len(fwd.Data) != 2*n {
		t.Fatalf("forward returned %d floats, want %d", len(fwd.Data), 2*n)
	}
	resp, inv, _ := postJSON(t, ts, &Request{Dims: []int{n}, Dtype: "complex128", Dir: "inverse", Data: fwd.Data})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inverse status %d", resp.StatusCode)
	}
	for i := range in {
		if diff := inv.Data[i] - in[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("round trip diverged at %d: %g vs %g", i, inv.Data[i], in[i])
		}
	}
}

func TestTransformRoutesAndShapes(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	cases := []struct {
		name string
		q    *Request
	}{
		{"1d_c64", &Request{Dims: []int{8}, Dtype: "complex64", Dir: "forward", Data: impulse(8)}},
		{"2d", &Request{Dims: []int{4, 8}, Dtype: "complex128", Dir: "forward", Data: impulse(32)}},
		{"3d", &Request{Dims: []int{4, 4, 8}, Dtype: "complex64", Dir: "inverse", Data: impulse(128)}},
		{"1d_batch", &Request{Dims: []int{8}, Dtype: "complex128", Dir: "forward",
			Batch: &BatchSpec{HowMany: 3, Stride: 1, Dist: 8}, Data: impulse(24)}},
		{"norm_unitary", &Request{Dims: []int{8}, Dtype: "complex128", Dir: "forward", Norm: "unitary", Data: impulse(8)}},
	}
	for _, tc := range cases {
		resp, out, eb := postJSON(t, ts, tc.q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%+v)", tc.name, resp.StatusCode, eb)
		}
		if len(out.Data) != len(tc.q.Data) {
			t.Fatalf("%s: %d floats back, want %d", tc.name, len(out.Data), len(tc.q.Data))
		}
	}
}

func TestMalformedRequestsGet400(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 1 << 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	for name, body := range malformedCorpus() {
		resp, err := ts.Client().Post(ts.URL+"/v1/transform", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: post: %v", name, err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if err != nil || eb.Error == "" {
			t.Errorf("%s: 400 body is not the JSON error shape (decode err %v)", name, err)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	resp, err := ts.Client().Get(ts.URL + "/v1/transform")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
}

// holdRequest posts q with a body the test controls: the server admits
// the request, then its decoder waits for a body that does not come.
// holdRequest returns once xmtserve_queue_depth shows the request
// admitted; release sends the body and returns the response status.
// Tests also defer release, so a failing test does not leave the
// request open and hang the test server's Close.
func holdRequest(t *testing.T, ts *httptest.Server, srv *Server, q *Request) (release func() int) {
	t.Helper()
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	pr, pw := io.Pipe()
	status := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/transform", "application/json", pr)
		if err != nil {
			t.Errorf("held request: %v", err)
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitForValue(t, srv, "xmtserve_queue_depth", 1)
	return sync.OnceValue(func() int {
		// A failed write means the client already gave up on the
		// request; the status it reports says so.
		pw.Write(body)
		pw.Close()
		return <-status
	})
}

// waitForValue polls the server's registry until the unlabeled series
// name reads want.
func waitForValue(t *testing.T, srv *Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := scrape(t, srv).Value(name, nil); v == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %g", name, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionControl429 fills the in-flight budget with a held
// request, then shows the next arrival is refused with 429 and a
// Retry-After hint instead of queueing without bound.
func TestAdmissionControl429(t *testing.T) {
	srv := New(Config{MaxInflight: 1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	q := &Request{Dims: []int{8}, Dtype: "complex64", Dir: "forward", Data: impulse(8)}
	release := holdRequest(t, ts, srv, q)
	defer release()
	resp, _, eb := postJSON(t, ts, q)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", resp.Header.Get("Retry-After"))
	}
	if eb.Error == "" {
		t.Fatal("429 without a JSON error body")
	}
	if code := release(); code != http.StatusOK {
		t.Fatalf("first request status %d, want 200", code)
	}

	exp := scrape(t, srv)
	if v, ok := exp.Value("xmtserve_requests_rejected_total", nil); !ok || v != 1 {
		t.Fatalf("xmtserve_requests_rejected_total = %g, %v; want 1", v, ok)
	}
}

// TestGracefulDrain verifies the SIGTERM story at the library level:
// during Shutdown new work gets 503 + Retry-After, /healthz flips to
// draining, and in-flight requests complete.
func TestGracefulDrain(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := &Request{Dims: []int{8}, Dtype: "complex64", Dir: "forward", Data: impulse(8)}
	release := holdRequest(t, ts, srv, q)
	defer release()

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	waitForValue(t, srv, "xmtserve_draining", 1)

	resp, _, _ := postJSON(t, ts, q)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz during drain: status %d, want 503", hresp.StatusCode)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	default:
	}
	if code := release(); code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestShutdownTimeoutReportsInflight(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := &Request{Dims: []int{8}, Dtype: "complex64", Dir: "forward", Data: impulse(8)}
	release := holdRequest(t, ts, srv, q)
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown with an expired context and an in-flight request returned nil")
	}
}

// TestResponseJSONShape locks the wire shape the clients depend on:
// exactly dims, dtype, dir and data.
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
	for _, key := range []string{"dims", "dtype", "dir", "data"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("response missing %q", key)
		}
	}
	if v, ok := doc["batched"]; ok {
		t.Errorf("response carries \"batched\": %v", v)
	}
}

// TestCodeletGaugeAfter2DRequest: the codelet-leaf gauge is refreshed
// by every route, so a server that has served one 2D request shows the
// leaves that request ran.
func TestCodeletGaugeAfter2DRequest(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	resp, _, eb := postJSON(t, ts, &Request{Dims: []int{16, 16}, Dtype: "complex64", Dir: "forward", Data: impulse(256)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("2D request: status %d (%+v)", resp.StatusCode, eb)
	}
	if v, ok := scrape(t, srv).Value("xmtserve_codelet_leaf_calls", nil); !ok || v <= 0 {
		t.Fatalf("xmtserve_codelet_leaf_calls = %g, %v after a 2D request; want > 0", v, ok)
	}
}

// TestStageHistogramsAccountForLatency: every 200 observes each stage
// once and nothing else observes any, and the stages account for the
// request: their sums stay at or below the route's latency sum and
// within 5% of it.
func TestStageHistogramsAccountForLatency(t *testing.T) {
	const n, requests = 1024, 300
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	data := make([]float64, 2*n)
	fillSignal(data, n)
	body, err := json.Marshal(&Request{Dims: []int{n}, Dtype: "complex64", Dir: "forward", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/transform", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < requests; i++ {
		if code := post(body); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if code := post(body[:len(body)/2]); code != http.StatusBadRequest {
		t.Fatalf("truncated request: status %d, want 400", code)
	}

	exp := scrape(t, srv)
	value := func(name string, labels map[string]string) float64 {
		t.Helper()
		v, ok := exp.Value(name, labels)
		if !ok {
			t.Fatalf("series %s %v missing", name, labels)
		}
		return v
	}
	served := value("xmtserve_requests_total", map[string]string{"route": "1d", "code": "200"})
	latency := value("xmtserve_request_latency_seconds_sum", map[string]string{"route": "1d"})
	var stages float64
	for _, name := range stageNames {
		stage := map[string]string{"stage": name}
		if count := value("xmtserve_stage_seconds_count", stage); count != served {
			t.Errorf("stage %s observed %g times, want one per 200 (%g)", name, count, served)
		}
		stages += value("xmtserve_stage_seconds_sum", stage)
	}
	t.Logf("%g requests: stages sum to %.4fs of %.4fs latency", served, stages, latency)
	if stages > latency*(1+1e-9) || stages < 0.95*latency {
		t.Fatalf("stages sum to %gs against %gs of route latency; want at most it and within 5%%", stages, latency)
	}
}

func TestHealthz(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
}

func TestFallbackHandlerServesUnknownPaths(t *testing.T) {
	fallback := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "obs here")
	})
	srv := New(Config{Fallback: fallback})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback status %d", resp.StatusCode)
	}
}

// TestConcurrentMixedLoad hammers every route from many goroutines —
// the -race workhorse for the handler, the shared plans and metrics.
func TestConcurrentMixedLoad(t *testing.T) {
	srv := New(Config{MaxInflight: 128})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	reqs := []*Request{
		{Dims: []int{16}, Dtype: "complex64", Dir: "forward", Data: impulse(16)},
		{Dims: []int{16}, Dtype: "complex128", Dir: "forward", Data: impulse(16)},
		{Dims: []int{32}, Dtype: "complex64", Dir: "inverse", Data: impulse(32)},
		{Dims: []int{4, 8}, Dtype: "complex128", Dir: "forward", Data: impulse(32)},
		{Dims: []int{4, 4, 4}, Dtype: "complex64", Dir: "forward", Data: impulse(64)},
	}
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, _, eb := postJSON(t, ts, reqs[(w+i)%len(reqs)])
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("worker %d req %d: status %d (%+v)", w, i, resp.StatusCode, eb)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// shutdownServer drains a test server, failing the test on error.
func shutdownServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// scrape renders and re-parses the server's registry.
func scrape(t *testing.T, srv *Server) *metrics.Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.Registry().WriteOpenMetrics(&buf); err != nil {
		t.Fatalf("encode registry: %v", err)
	}
	exp, err := metrics.Parse(&buf)
	if err != nil {
		t.Fatalf("parse registry exposition: %v", err)
	}
	return exp
}

// direct1D computes the reference transform with the same cached plan
// path the server uses.
func direct1D[C fft.Complex](t *testing.T, n int, data []C, dir fft.Direction) []C {
	t.Helper()
	plan, err := fft.CachedPlan[C](n, fft.WithNorm(fft.NormByN))
	if err != nil {
		t.Fatalf("cached plan: %v", err)
	}
	out := append([]C(nil), data...)
	if err := plan.Transform(out, dir); err != nil {
		t.Fatalf("direct transform: %v", err)
	}
	return out
}

// TestBodySizeLimit pins MaxBodyBytes at its edge, with and without a
// Content-Length: a valid body of exactly the limit is served, one byte
// more is a 400 that says the body exceeds the limit.
func TestBodySizeLimit(t *testing.T) {
	doc, err := json.Marshal(&Request{Dims: []int{8}, Dtype: "complex64", Dir: "forward", Data: impulse(8)})
	if err != nil {
		t.Fatal(err)
	}
	// Trailing whitespace is legal, so padding keeps the body valid.
	atLimit := append(doc, bytes.Repeat([]byte{' '}, 100)...)
	srv := New(Config{MaxBodyBytes: int64(len(atLimit))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	post := func(body []byte, chunked bool) (int, string) {
		var r io.Reader = bytes.NewReader(body)
		if chunked {
			r = io.MultiReader(r) // hides the length: no Content-Length
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/transform", "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("status %d without a JSON error body: %v", resp.StatusCode, err)
			}
		}
		return resp.StatusCode, eb.Error
	}
	for _, chunked := range []bool{false, true} {
		if code, msg := post(atLimit, chunked); code != http.StatusOK {
			t.Fatalf("chunked=%v: body of exactly MaxBodyBytes got %d (%s), want 200", chunked, code, msg)
		}
		code, msg := post(append(atLimit, ' '), chunked)
		if code != http.StatusBadRequest || !strings.Contains(msg, "exceeds") {
			t.Fatalf("chunked=%v: body one byte over MaxBodyBytes got %d %q, want 400 saying it exceeds the limit", chunked, code, msg)
		}
	}
}

// TestOverflowingOutputGets400 covers inputs that validate admits but
// whose transform overflows the element type: the response would hold
// ±Inf, which JSON cannot carry, so the request is a 400 with an error
// body — counted as such — not a 200 with an empty body.
func TestOverflowingOutputGets400(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	for route, body := range map[string]string{
		"1d": `{"dims":[2],"dtype":"complex64","dir":"forward","data":[3e38,0,3e38,0]}`,
		"2d": `{"dims":[2,2],"dtype":"complex64","dir":"forward","data":[3e38,0,3e38,0,3e38,0,3e38,0]}`,
		"1d_batch": `{"dims":[2],"dtype":"complex128","dir":"forward","batch":{"how_many":1,"stride":1,"dist":2},` +
			`"data":[1.7976931348623157e308,0,1.7976931348623157e308,0]}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/transform", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(eb.Error, "not finite") {
			t.Errorf("%s: status %d, error body %+v (decode err %v); want 400 naming the non-finite output", route, resp.StatusCode, eb, err)
		}
		exp := scrape(t, srv)
		if v, _ := exp.Value("xmtserve_requests_total", map[string]string{"route": route, "code": "400"}); v != 1 {
			t.Errorf("%s: xmtserve_requests_total{code=\"400\"} = %g, want 1", route, v)
		}
		if v, ok := exp.Value("xmtserve_requests_total", map[string]string{"route": route, "code": "200"}); ok {
			t.Errorf("%s: overflowing request counted as a 200 (%g)", route, v)
		}
	}
}

// TestBatchTransformBytesIndependentOfN pins explicit-batch execution
// to the shared cached plan: one strided (gather-path) request costs
// the same bytes at n=4096 as at n=64, so nothing n-sized — no plan
// scratch, no gather buffer — is allocated per request. Each size
// takes the minimum of 5 trials of 100 calls; the slack absorbs the
// race detector, under which sync.Pool drops items at random.
func TestBatchTransformBytesIndependentOfN(t *testing.T) {
	defer fft.ResetPlanCache()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const slack = 128
	b := &BatchSpec{HowMany: 2, Stride: 2, Dist: 1}
	perCall := func(n int) uint64 {
		x := make([]complex64, (b.HowMany-1)*b.Dist+(n-1)*b.Stride+1)
		q := &Request{Dims: []int{n}, Dtype: dtypeC64, Dir: "forward", Batch: b}
		run := func() {
			if err := transform(x, q); err != nil {
				t.Fatal(err)
			}
		}
		run()
		const calls = 100
		best := uint64(math.MaxUint64)
		for trial := 0; trial < 5; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/calls)
		}
		return best
	}
	small, large := perCall(64), perCall(4096)
	t.Logf("bytes per explicit-batch transform: %d at n=64, %d at n=4096", small, large)
	if large > small+slack {
		t.Errorf("explicit-batch transform allocates %d B at n=64 but %d B at n=4096", small, large)
	}
}
