// Package loadgen is the transform service's load-generator client:
// a fixed worker count fires a fixed request total at a live server and
// reports latency quantiles and throughput.
// It is the measurement half of the serving story — used by
// `xmtserve -selftest`, by `xmtserve -load` against a remote server,
// and by harness.RunServeBench to emit BENCH_serve.json.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xmtfft/internal/serve"
)

// Options configures one load run.
type Options struct {
	BaseURL     string        // e.g. http://127.0.0.1:8123
	Concurrency int           // worker goroutines (default 1)
	Requests    int           // total requests across workers (default 100)
	N           int           // 1D transform size (default 1024)
	Dtype       string        // "complex64" (default) or "complex128"
	Dir         string        // "forward" (default) or "inverse"
	Timeout     time.Duration // per-request client timeout (default 30s)
	MaxRetries  int           // retries of a 429 before counting it lost (default 8)
}

func (o Options) withDefaults() Options {
	if o.Concurrency <= 0 {
		o.Concurrency = 1
	}
	if o.Requests <= 0 {
		o.Requests = 100
	}
	if o.N <= 0 {
		o.N = 1024
	}
	if o.Dtype == "" {
		o.Dtype = "complex64"
	}
	if o.Dir == "" {
		o.Dir = "forward"
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 8
	}
	return o
}

// Result is one load level's measurement. Latencies, in milliseconds,
// run from sending the already-marshalled request to the last byte of
// the response body, 429 retries included; the response is validated
// after the clock stops, so the client's own JSON decode is not timed.
type Result struct {
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	Rejected429 int     `json:"rejected_429"` // rejections seen (all retried up to MaxRetries)
	ElapsedSec  float64 `json:"elapsed_sec"`
	Throughput  float64 `json:"requests_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
	MeanMs      float64 `json:"mean_ms"`
}

// workerState collects one worker's observations, merged after the run.
type workerState struct {
	latMs    []float64
	errs     int
	rejected int
}

// Run fires opts.Requests requests and blocks until they are resolved.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	client := &http.Client{Timeout: opts.Timeout}
	url := opts.BaseURL + "/v1/transform"

	states := make([]workerState, opts.Concurrency)
	var wg sync.WaitGroup
	var next atomic.Int64
	begin := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func(st *workerState) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opts.Requests {
					return
				}
				runOne(client, url, opts, i, st)
			}
		}(&states[w])
	}
	wg.Wait()
	elapsed := time.Since(begin).Seconds()

	res := &Result{Concurrency: opts.Concurrency, Requests: opts.Requests, ElapsedSec: elapsed}
	var lat []float64
	for i := range states {
		st := &states[i]
		lat = append(lat, st.latMs...)
		res.Errors += st.errs
		res.Rejected429 += st.rejected
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("loadgen: no request completed (%d errors)", res.Errors)
	}
	sort.Float64s(lat)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	res.MeanMs = sum / float64(len(lat))
	res.P50Ms = quantile(lat, 0.50)
	res.P90Ms = quantile(lat, 0.90)
	res.P99Ms = quantile(lat, 0.99)
	res.MaxMs = lat[len(lat)-1]
	if elapsed > 0 {
		res.Throughput = float64(len(lat)) / elapsed
	}
	return res, nil
}

// runOne issues one request (retrying 429s with the server's
// Retry-After hint, capped) and records the outcome.
func runOne(client *http.Client, url string, opts Options, seq int, st *workerState) {
	body, err := json.Marshal(requestBody(opts, seq))
	if err != nil {
		st.errs++
		return
	}
	begin := time.Now()
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			st.errs++
			return
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			st.rejected++
			wait := retryAfter(resp)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if attempt >= opts.MaxRetries {
				st.errs++
				return
			}
			time.Sleep(wait)
			continue
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat := time.Since(begin)
		if err != nil || !wellFormed(resp.StatusCode, payload) {
			st.errs++
			return
		}
		st.latMs = append(st.latMs, float64(lat.Nanoseconds())/1e6)
		return
	}
}

// wellFormed reports whether a non-429 response is a 200 whose body
// decodes as a transform response.
func wellFormed(status int, payload []byte) bool {
	var out serve.Response
	return status == http.StatusOK && json.Unmarshal(payload, &out) == nil
}

// retryAfter parses the Retry-After seconds hint, defaulting to 50ms
// (servers under test use sub-second budgets; a missing header should
// not stall the run for a full second).
func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec >= 0 {
			// Cap the honored hint: the load generator's job is to keep
			// pressure on, not to fully yield.
			d := time.Duration(sec) * time.Second
			if d > 250*time.Millisecond {
				d = 250 * time.Millisecond
			}
			return d
		}
	}
	return 50 * time.Millisecond
}

// requestBody builds the seq-th request: deterministic per-index data
// so repeated runs are comparable, varied so responses are not
// trivially cacheable.
func requestBody(opts Options, seq int) *serve.Request {
	data := make([]float64, 2*opts.N)
	state := uint64(seq)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := range data {
		// splitmix64 step, mapped to [-1, 1) at float32 precision so
		// complex64 payloads survive the wire exactly.
		state += 0x9e3779b97f4a7c15
		z := state
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		data[i] = float64(float32(z>>40)/float32(1<<23)) - 1
	}
	return &serve.Request{
		Dims:  []int{opts.N},
		Dtype: opts.Dtype,
		Dir:   opts.Dir,
		Data:  data,
	}
}

// quantile returns the q-quantile of sorted values (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
