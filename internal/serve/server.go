// Package serve is the FFT-as-a-service layer: an HTTP server in front
// of the concurrency-safe fft plan cache. It accepts 1D/2D/3D transform
// requests (complex64/complex128, forward/inverse, optionally batched)
// on POST /v1/transform, transforms each one in its own handler
// goroutine on the shared plan from fft.CachedPlan*, and applies
// admission control: a bounded in-flight budget whose overflow is
// answered with 429 + Retry-After instead of unbounded queueing.
// Shutdown drains gracefully: new work is refused with 503 while
// accepted requests finish.
//
// Observability rides on internal/metrics: per-route latency
// histograms, per-stage histograms of every served request (decode,
// transform, encode, write), request/rejection counters, queue-depth
// gauges and the codelet-leaf gauge, registered on the registry the
// caller passes in (cmd/xmtserve passes harness.Obs's registry, so the
// series appear on the same /metrics endpoint as the rest of the
// repo's surface).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xmtfft/internal/fft"
	"xmtfft/internal/metrics"
)

// Config sizes the service. The zero value is usable: New fills
// defaults and builds a private registry when none is given.
type Config struct {
	// MaxInflight bounds admitted-but-unfinished requests (queued +
	// executing). Arrivals beyond it get 429 + Retry-After. Default 256.
	MaxInflight int
	// MaxBatch is ignored.
	//
	// Deprecated: requests are not coalesced, so there is no batch to
	// cap.
	MaxBatch int
	// CoalesceWait is ignored.
	//
	// Deprecated: requests are not coalesced, so there is no batch to
	// hold open.
	CoalesceWait time.Duration
	// MaxBodyBytes bounds a request body. Default 1<<28.
	MaxBodyBytes int64
	// RetryAfter is the backoff hint attached to 429/503 responses,
	// rounded up to whole seconds. Default 1s.
	RetryAfter time.Duration
	// Registry receives the service's metric series; nil builds a
	// private one (reachable via Server.Registry).
	Registry *metrics.Registry
	// Fallback handles every path the service does not own — the
	// caller mounts the observability surface (/metrics, /progress,
	// /debug/pprof) here. nil 404s.
	Fallback http.Handler
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 28
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// serverMetrics are the series the service registers.
type serverMetrics struct {
	requests   *metrics.CounterVec // route, code
	latency    *metrics.HistogramVec
	queueDepth *metrics.Gauge
	queueLimit *metrics.Gauge
	rejected   *metrics.Counter
	draining   *metrics.Gauge
	// codeletLeaves mirrors the fft package's process-wide codelet-leaf
	// invocation counter (refreshed after every transform), so the obs
	// surface shows how much of the serve traffic runs on generated
	// straight-line kernels.
	codeletLeaves *metrics.Gauge
	// stage times the steps of every 200, indexed by the stage*
	// constants; the handles are looked up once, here.
	stage [len(stageNames)]*metrics.Histogram
}

// The stages of a served request, in order: reading and decoding the
// body, the transform (with the copy into complex samples), encoding the
// response and writing it.
const (
	stageDecode = iota
	stageTransform
	stageEncode
	stageWrite
)

var stageNames = [...]string{"decode", "transform", "encode", "write"}

// latencyBounds covers 100µs to 10s; stageBounds reaches down to 1µs.
var (
	latencyBounds = []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	stageBounds   = append([]float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5}, latencyBounds...)
)

func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	m := &serverMetrics{
		requests:   reg.CounterVec("xmtserve_requests", "Transform requests by route and HTTP status code.", "route", "code"),
		latency:    reg.HistogramVec("xmtserve_request_latency_seconds", "End-to-end request latency (decode, queue, transform, encode) by route.", latencyBounds, "route"),
		queueDepth: reg.Gauge("xmtserve_queue_depth", "Admitted requests currently queued or executing."),
		queueLimit: reg.Gauge("xmtserve_queue_limit", "Admission bound; arrivals beyond it are rejected with 429."),
		rejected:   reg.Counter("xmtserve_requests_rejected", "Requests refused by admission control (429)."),
		draining:   reg.Gauge("xmtserve_draining", "1 while the server refuses new work to drain for shutdown."),
		codeletLeaves: reg.Gauge("xmtserve_codelet_leaf_calls",
			"Process-wide generated-kernel (codelet leaf) invocations, sampled after each transform."),
	}
	stages := reg.HistogramVec("xmtserve_stage_seconds", "Time in each stage of a served (200) request: decode, transform, encode, write.", stageBounds, "stage")
	for i, name := range stageNames {
		m.stage[i] = stages.With(name)
	}
	return m
}

// Server is the transform service. Create with New, expose via
// Handler, stop with Shutdown.
type Server struct {
	cfg Config
	met *serverMetrics

	inflight atomic.Int64
	draining atomic.Bool
	// drainMu orders wg.Add against Shutdown's wg.Wait: handlers add
	// under RLock with draining false, Shutdown flips draining under the
	// write lock, so no Add can start from zero once Wait begins.
	drainMu sync.RWMutex
	wg      sync.WaitGroup
}

// New builds a server from cfg (zero value fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, met: newServerMetrics(cfg.Registry)}
	s.met.queueLimit.Set(float64(cfg.MaxInflight))
	return s
}

// Registry returns the registry carrying the service's series.
func (s *Server) Registry() *metrics.Registry { return s.cfg.Registry }

// Handler returns the service mux: POST /v1/transform, GET /healthz,
// everything else to cfg.Fallback.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/transform", s.handleTransform)
	mux.HandleFunc("/healthz", s.handleHealth)
	if s.cfg.Fallback != nil {
		mux.Handle("/", s.cfg.Fallback)
	}
	return mux
}

// Shutdown drains the server: new requests are refused with 503 and
// admitted ones run to completion, or ctx expires first. Safe to call
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	s.met.draining.Set(1)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with %d requests in flight: %w", s.inflight.Load(), ctx.Err())
	}
	return nil
}

// handleHealth is the liveness/readiness probe: 200 while serving,
// 503 while draining.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"status":"draining"}`+"\n")
		return
	}
	fmt.Fprint(w, `{"status":"ok"}`+"\n")
}

// retryAfterSeconds renders the Retry-After hint (whole seconds,
// minimum 1 — the header does not do fractions).
func (s *Server) retryAfterSeconds() string {
	sec := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return strconv.Itoa(sec)
}

// writeError emits the JSON error body with the given status.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// handleTransform is the one transform route. Route classification for
// metrics happens after decode; admission control before.
func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code, route := http.StatusOK, "unknown"
	defer func() {
		s.met.requests.With(route, strconv.Itoa(code)).Inc()
		s.met.latency.With(route).Observe(time.Since(start).Seconds())
	}()

	if r.Method != http.MethodPost {
		code = http.StatusMethodNotAllowed
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, code, "POST only")
		return
	}

	// Admission control: the in-flight budget covers everything from
	// here to the response; overflow is the client's signal to back off.
	cur := s.inflight.Add(1)
	defer func() {
		s.met.queueDepth.Set(float64(s.inflight.Add(-1)))
	}()
	if int(cur) > s.cfg.MaxInflight {
		s.met.rejected.Inc()
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, code, fmt.Sprintf("over capacity (%d in flight)", s.cfg.MaxInflight))
		return
	}

	// Drain gate: the Add happens under RLock with draining checked
	// false, so Shutdown (which flips draining under the write lock
	// before waiting) either sees this request in the WaitGroup or the
	// request sees the drain and gets the 503.
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, code, "draining")
		return
	}
	s.wg.Add(1)
	s.drainMu.RUnlock()
	defer s.wg.Done()
	// Published only past both gates, so a depth of k means k requests
	// that Shutdown waits for.
	s.met.queueDepth.Set(float64(cur))

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	c := getCodec(r.ContentLength)
	defer c.release()
	var t [len(stageNames) + 1]time.Time // each stage's start, then the end
	t[stageDecode] = time.Now()
	q, err := c.decode(r.Body)
	if err != nil {
		code = http.StatusBadRequest
		writeError(w, code, err.Error())
		return
	}
	route = routeOf(q)

	t[stageTransform] = time.Now()
	err = s.execute(c)
	if err == nil {
		t[stageEncode] = time.Now()
		err = c.encode()
	}
	if err != nil {
		var reqErr *RequestError
		if errors.As(err, &reqErr) {
			code = http.StatusBadRequest
		} else {
			code = http.StatusInternalServerError
		}
		writeError(w, code, err.Error())
		return
	}
	t[stageWrite] = time.Now()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(c.buf)))
	// A write error comes too late for a status change; the client sees
	// the truncation.
	_, _ = w.Write(c.buf)
	t[len(stageNames)] = time.Now()
	for i, h := range s.met.stage {
		h.Observe(t[i+1].Sub(t[i]).Seconds())
	}
}

// routeOf labels a validated request for metrics.
func routeOf(q *Request) string {
	switch {
	case q.Batch != nil:
		return "1d_batch"
	case len(q.Dims) == 2:
		return "2d"
	case len(q.Dims) == 3:
		return "3d"
	default:
		return "1d"
	}
}

// execute transforms c's validated request in place on c's complex
// buffers.
func (s *Server) execute(c *codec) (err error) {
	if c.q.Dtype == dtypeC64 {
		c.c64 = toComplex(c.c64, c.q.Data)
		err = transform(c.c64, &c.q)
	} else {
		c.c128 = toComplex(c.c128, c.q.Data)
		err = transform(c.c128, &c.q)
	}
	s.met.codeletLeaves.Set(float64(fft.CodeletLeafCalls()))
	return err
}

// transform runs the validated request q on its samples x, in place, on
// the shared cached plan for q's shape. Every plan is safe for
// concurrent Transform calls, so each handler calls it directly.
func transform[C fft.Complex](x []C, q *Request) error {
	dir, _ := q.direction()
	norm, _ := q.normalization()
	opt, d := fft.WithNorm(norm), q.Dims
	switch len(d) {
	case 3:
		plan, err := fft.CachedPlan3D[C](d[0], d[1], d[2], opt)
		if err != nil {
			return err
		}
		return plan.Transform(x, dir)
	case 2:
		plan, err := fft.CachedPlan2D[C](d[0], d[1], opt)
		if err != nil {
			return err
		}
		return plan.Transform(x, dir)
	}
	plan, err := fft.CachedPlan[C](d[0], opt)
	if err != nil {
		return err
	}
	b := q.Batch
	if b == nil {
		return plan.Transform(x, dir)
	}
	// Explicit batch layout: a batch view over the same shared plan.
	bp, err := fft.NewBatchPlanOf(plan, b.HowMany, b.Stride, b.Dist)
	if err != nil {
		return err
	}
	return bp.Transform(x, dir)
}
