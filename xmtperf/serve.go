package main

// serve-1d-c2: a closed loop of two clients (the nproc of the host the
// benchmark was sized on) on loopback, each sending its next n=1024
// complex64 forward request once the previous response arrived, to a
// serve.New server with the xmtserve CLI defaults (coalesce wait 0).
// Payloads come from the seed. A request's latency runs from sending
// it to reading the last response byte; decoding and checking the
// response happen outside that interval. Every response must be
// bit-identical to fft.CachedPlan[complex64](1024).Transform of its
// payload.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"xmtfft/internal/fft"
	"xmtfft/internal/serve"
	"xmtfft/internal/stats"
)

const (
	serveN       = 1024
	serveClients = 2
	// servePool distinct payloads are cycled through in a seeded order.
	servePool = 64
	// serveRetries is how often a 429 is retried before it counts as a
	// failure; serveBackoff is the wait before each retry.
	serveRetries = 3
	serveBackoff = 10 * time.Millisecond
	// serveProbeEvery: in traced runs every this-many requests a client
	// also times the serve layer's pieces (decode, transform, encode)
	// on the same payload, outside the request's latency.
	serveProbeEvery = 8
	spanHeader      = "X-Xmtperf-Span"
)

// cliConfig is serve.Config with the xmtserve command's flag defaults.
func cliConfig() serve.Config {
	return serve.Config{MaxInflight: 256, MaxBatch: 32, CoalesceWait: 0,
		MaxBodyBytes: 1 << 28, RetryAfter: time.Second}
}

type servePayload struct {
	body []byte      // the encoded serve.Request
	want []complex64 // its transform
}

func servePayloads(seed uint64) ([]servePayload, errAcc, error) {
	var acc errAcc
	plan, err := fft.CachedPlan[complex64](serveN)
	if err != nil {
		return nil, acc, err
	}
	ref, err := fft.NewPlan[complex128](serveN)
	if err != nil {
		return nil, acc, err
	}
	all := seededComplex(seed, servePool*serveN)
	ps := make([]servePayload, servePool)
	for i := range ps {
		x := all[i*serveN : (i+1)*serveN]
		data := make([]float64, 0, 2*serveN)
		for _, v := range x {
			data = append(data, float64(real(v)), float64(imag(v)))
		}
		req := serve.Request{Dims: []int{serveN}, Dtype: "complex64", Dir: "forward", Data: data}
		if ps[i].body, err = json.Marshal(req); err != nil {
			return nil, acc, err
		}
		ps[i].want = append([]complex64(nil), x...)
		if err := plan.Transform(ps[i].want, fft.Forward); err != nil {
			return nil, acc, err
		}
		r := widen(x)
		if err := ref.Transform(r, fft.Forward); err != nil {
			return nil, acc, err
		}
		acc.add(ps[i].want, r)
	}
	return ps, acc, nil
}

// checkResponse decodes a response body and compares it bit for bit
// with the expected transform. It returns the batch size the server
// reports.
func checkResponse(body []byte, want []complex64) (int, error) {
	var r serve.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("decode response: %w", err)
	}
	if len(r.Data) != 2*len(want) {
		return 0, fmt.Errorf("response has %d floats, want %d", len(r.Data), 2*len(want))
	}
	for i, w := range want {
		re, im := r.Data[2*i], r.Data[2*i+1]
		if float64(float32(re)) != re || float64(float32(im)) != im ||
			math.Float32bits(float32(re)) != math.Float32bits(real(w)) ||
			math.Float32bits(float32(im)) != math.Float32bits(imag(w)) {
			return 0, fmt.Errorf("response element %d = (%v, %v), want %v", i, re, im, w)
		}
	}
	return r.Batched, nil
}

// instance is one running server with its listener and client.
type instance struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
}

func startInstance(handler func(*serve.Server) http.Handler) (*instance, error) {
	srv := serve.New(cliConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	in := &instance{srv: srv, hs: &http.Server{Handler: handler(srv)},
		url:  "http://" + ln.Addr().String() + "/v1/transform",
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients, DisableCompression: true}}}
	go func() { in.done <- in.hs.Serve(ln) }()
	return in, nil
}

// stop shuts the HTTP server and the service down and waits for the
// serving goroutine to return.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	in.client.CloseIdleConnections()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := in.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	return err
}

// post sends one request, retrying 429s, and returns the final status
// and body. rejected counts the 429s seen.
func (in *instance) post(body []byte, span int, rejected *int) (int, []byte, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, in.url, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if span != 0 {
			req.Header.Set(spanHeader, strconv.Itoa(span))
		}
		resp, err := in.client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt == serveRetries {
			return resp.StatusCode, b, nil
		}
		*rejected++
		time.Sleep(serveBackoff)
	}
}

// clientStats is one client's tally.
type clientStats struct {
	lat                  []float64 // ms; +Inf for failed requests
	doneAt               []float64 // s since the loop started, completed requests
	attempted, failed    int
	coalesced, rejected  int
	decode, exec, encode []float64 // ms, traced probes only
	firstErr             error
}

func runServe(c runCtx) (*outcome, error) {
	payloads, acc, err := servePayloads(c.seed)
	if err != nil {
		return nil, err
	}
	handler := func(s *serve.Server) http.Handler { return s.Handler() }
	if c.rec != nil {
		handler = func(s *serve.Server) http.Handler {
			h := s.Handler()
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
				sp := c.rec.begin("serve", "handler", parent, c.rec.trackOf(parent))
				h.ServeHTTP(w, r)
				c.rec.end(sp)
			})
		}
	}

	// Set-up: serve.New and a listener, up to the first successful
	// response, from an emptied plan cache. Every set-up but the last
	// is shut down again.
	var setups []float64
	var in *instance
	for i := 0; i < setupReps; i++ {
		fft.ResetPlanCache()
		sp := c.rec.begin("serve", "setup", 0, 1)
		t0 := time.Now()
		in, err = startInstance(handler)
		if err != nil {
			return nil, err
		}
		var rej int
		code, body, err := in.post(payloads[0].body, 0, &rej)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("serve set-up: status %d: %s", code, body)
		}
		setups = append(setups, time.Since(t0).Seconds())
		c.rec.end(sp)
		if _, err := checkResponse(body, payloads[0].want); err != nil {
			return nil, err
		}
		if i < setupReps-1 {
			if err := in.stop(); err != nil {
				return nil, err
			}
		}
	}

	order := seededOrder(c.seed, servePool)
	tallies := make([]clientStats, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(c.seconds * float64(time.Second)))
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			serveClient(c, in, payloads, order, k, start, deadline, &tallies[k])
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if err := in.stop(); err != nil {
		return nil, err
	}

	o := newOutcome()
	var all clientStats
	for k := range tallies {
		s := &tallies[k]
		all.lat = append(all.lat, s.lat...)
		all.doneAt = append(all.doneAt, s.doneAt...)
		all.attempted += s.attempted
		all.failed += s.failed
		all.coalesced += s.coalesced
		all.rejected += s.rejected
		all.decode = append(all.decode, s.decode...)
		all.exec = append(all.exec, s.exec...)
		all.encode = append(all.encode, s.encode...)
		if s.firstErr != nil {
			o.notef("FAIL client %d: %v", k, s.firstErr)
		}
	}
	o.attempted, o.failed = all.attempted, all.failed
	p50 := percentile(all.lat, 0.5)
	p90 := percentile(all.lat, 0.9)
	o.e2e["setup_s"] = median(setups)
	o.e2e["peak_rss_mb"] = rss
	o.e2e["rps"] = perSecondMedian(all.doneAt, wall.Seconds())
	o.e2e["host_gflops"] = o.e2e["rps"] * stats.StandardFFTFlops(serveN) / 1e9
	o.e2e["p50_ms"] = p50
	o.e2e["rel_err"] = acc.value()
	o.notef("serve n=%d clients=%d requests=%d p50_ms=%.3f p90_ms=%.3f p90_tail_ok=%v",
		serveN, serveClients, all.attempted, p50, p90, tailOK(len(all.lat), 0.9))

	l := o.layer
	l["serve.p90_ms"] = p90
	l["serve.p99_ms"] = percentile(all.lat, 0.99)
	l["serve.coalesce_rate"] = float64(all.coalesced) / float64(all.attempted)
	l["serve.rejected"] = float64(all.rejected)
	if len(all.decode) > 0 {
		l["serve.decode_ms"] = median(all.decode)
		l["serve.exec_ms"] = median(all.exec)
		l["serve.encode_ms"] = median(all.encode)
		l["serve.rest_ms"] = p50 - l["serve.decode_ms"] - l["serve.exec_ms"] - l["serve.encode_ms"]
	}
	return o, nil
}

// perSecondMedian is the median over the whole seconds of a loop of
// length d of how many completion times fall in each second (the
// partial last second is dropped, and a loop shorter than a second
// counts as one). Unlike the overall rate it is not moved by a few
// seconds in which the hypervisor took the CPUs away.
func perSecondMedian(doneAt []float64, d float64) float64 {
	if d < 1 {
		return float64(len(doneAt)) / d
	}
	counts := make([]float64, int(d))
	for _, t := range doneAt {
		if i := int(t); i < len(counts) {
			counts[i]++
		}
	}
	return median(counts)
}

// seededOrder is a seeded permutation of [0, n).
func seededOrder(seed uint64, n int) []int {
	keys := seededComplex(seed^0x5bd1e995, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(math.Abs(float64(real(keys[i])))*float64(i+1)) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

type verifiedBody struct{ payload, batched int }

// serveClient is one closed-loop client: send, wait for the whole
// response, check it, repeat until the deadline.
func serveClient(c runCtx, in *instance, payloads []servePayload, order []int, k int, start, deadline time.Time, s *clientStats) {
	var plan *fft.Plan[complex64]
	if c.rec != nil {
		var err error
		if plan, err = fft.CachedPlan[complex64](serveN); err != nil {
			s.firstErr = err
			return
		}
	}
	// verified holds every response body this client has decoded and
	// checked bit for bit. The server encodes deterministically, so a
	// body equal to a verified one for the same payload is correct
	// without decoding it again, and the client costs the server little
	// CPU time.
	verified := map[string]verifiedBody{}
	fail := func(err error) {
		s.failed++
		s.lat[len(s.lat)-1] = math.Inf(1)
		if s.firstErr == nil {
			s.firstErr = err
		}
	}
	for i := k; time.Now().Before(deadline); i += serveClients {
		idx := order[i%len(order)]
		p := &payloads[idx]
		sp := c.rec.begin("bench", "request", 0, 1+k)
		t0 := time.Now()
		code, body, err := in.post(p.body, sp, &s.rejected)
		s.lat = append(s.lat, time.Since(t0).Seconds()*1e3)
		c.rec.end(sp)
		s.attempted++
		switch {
		case err != nil:
			fail(err)
			continue
		case code != http.StatusOK:
			fail(fmt.Errorf("status %d: %s", code, body))
			continue
		}
		v, seen := verified[string(body)]
		if !seen || v.payload != idx {
			batched, err := checkResponse(body, p.want)
			if err != nil {
				fail(err)
				continue
			}
			v = verifiedBody{payload: idx, batched: batched}
			verified[string(body)] = v
		}
		s.doneAt = append(s.doneAt, time.Since(start).Seconds())
		if v.batched > 1 {
			s.coalesced++
		}
		if plan != nil && s.attempted%serveProbeEvery == 0 {
			if err := probeServe(c.rec, plan, p, sp, 1+k, s); err != nil {
				fail(err)
			}
		}
	}
}

// probeServe times the serve layer's pieces on one payload, outside
// any request: strict request decoding, the 1D transform and the JSON
// encoding of the response.
func probeServe(rec *recorder, plan *fft.Plan[complex64], p *servePayload, parent, track int, s *clientStats) error {
	t0 := time.Now()
	q, err := serve.DecodeRequest(bytes.NewReader(p.body))
	if err != nil {
		return err
	}
	t1 := time.Now()
	x := make([]complex64, serveN)
	for i := range x {
		x[i] = complex(float32(q.Data[2*i]), float32(q.Data[2*i+1]))
	}
	t2 := time.Now()
	if err := plan.Transform(x, fft.Forward); err != nil {
		return err
	}
	t3 := time.Now()
	data := make([]float64, 0, 2*serveN)
	for _, v := range x {
		data = append(data, float64(real(v)), float64(imag(v)))
	}
	resp := serve.Response{Dims: q.Dims, Dtype: q.Dtype, Dir: q.Dir, Batched: 1, Data: data}
	if err := json.NewEncoder(io.Discard).Encode(&resp); err != nil {
		return err
	}
	t4 := time.Now()
	rec.add("serve", "DecodeRequest", t0, t1, parent, track)
	rec.add("fft", "Plan.Transform", t2, t3, parent, track)
	rec.add("serve", "encode Response", t3, t4, parent, track)
	s.decode = append(s.decode, t1.Sub(t0).Seconds()*1e3)
	s.exec = append(s.exec, t3.Sub(t2).Seconds()*1e3)
	s.encode = append(s.encode, t4.Sub(t3).Seconds()*1e3)
	return nil
}
