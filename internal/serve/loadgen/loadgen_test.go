package loadgen

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xmtfft/internal/serve"
)

func TestLoadgenAgainstLiveServer(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	res, err := Run(Options{
		BaseURL:     ts.URL,
		Concurrency: 4,
		Requests:    40,
		N:           64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d/%d requests failed", res.Errors, res.Requests)
	}
	if res.P50Ms <= 0 || res.P99Ms < res.P50Ms || res.MaxMs < res.P99Ms {
		t.Fatalf("latency quantiles inconsistent: p50=%g p99=%g max=%g", res.P50Ms, res.P99Ms, res.MaxMs)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput %g", res.Throughput)
	}
}

// TestLoadgenCountsMalformedOKAsError serves a 200 whose body is not a
// transform response: validation after the clock stops must still count
// every such request as an error, so the run reports no latency.
func TestLoadgenCountsMalformedOKAsError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"dims": [64], "data": [1, 2`)
	}))
	defer ts.Close()

	res, err := Run(Options{BaseURL: ts.URL, Concurrency: 2, Requests: 6, N: 64})
	if err == nil || !strings.Contains(err.Error(), "(6 errors)") {
		t.Fatalf("run over malformed 200s: %+v, %v; want no completed request and 6 errors", res, err)
	}
}

// slowBody delays the server's first read of a request body, so each
// admitted request holds its in-flight slot for a few milliseconds, as
// the upload and transform of a large request would.
type slowBody struct {
	io.ReadCloser
	once sync.Once
}

func (b *slowBody) Read(p []byte) (int, error) {
	b.once.Do(func() { time.Sleep(5 * time.Millisecond) })
	return b.ReadCloser.Read(p)
}

// TestLoadgenRetriesBackpressure drives a deliberately tiny admission
// budget: the run must still complete every request by honoring 429 +
// Retry-After, and report the rejections it absorbed.
func TestLoadgenRetriesBackpressure(t *testing.T) {
	srv := serve.New(serve.Config{MaxInflight: 2, RetryAfter: time.Second})
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = &slowBody{ReadCloser: r.Body}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	res, err := Run(Options{
		BaseURL:     ts.URL,
		Concurrency: 8,
		Requests:    48,
		N:           32,
		MaxRetries:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d requests lost despite retries", res.Errors)
	}
	if res.Rejected429 == 0 {
		t.Fatal("no request was refused with 429, so the retry path never ran")
	}
	t.Logf("completed %d requests through a budget of 2 with %d rejections retried", res.Requests, res.Rejected429)
}

func TestRequestBodyDeterministic(t *testing.T) {
	a := requestBody(Options{N: 16}.withDefaults(), 7)
	b := requestBody(Options{N: 16}.withDefaults(), 7)
	c := requestBody(Options{N: 16}.withDefaults(), 8)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seq produced different payloads")
		}
	}
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seq produced identical payloads")
	}
	for i, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("payload value %d = %g outside [-1, 1)", i, v)
		}
		if float64(float32(v)) != v {
			t.Fatalf("payload value %d = %g not float32-exact", i, v)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(vals, 0.5); q != 5 {
		t.Errorf("p50 = %g, want 5", q)
	}
	if q := quantile(vals, 0.99); q != 10 {
		t.Errorf("p99 = %g, want 10", q)
	}
	if q := quantile(vals[:1], 0.5); q != 1 {
		t.Errorf("single-sample p50 = %g, want 1", q)
	}
}
