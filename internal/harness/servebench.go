package harness

// Serving benchmark: stand up the transform service in-process on a
// loopback port and drive it with the loadgen client at several
// concurrency levels, recording p50/p99 latency and throughput per
// level as BENCH_serve.json: the machine-readable form of how latency
// and throughput move as concurrency grows.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"xmtfft/internal/serve"
	"xmtfft/internal/serve/loadgen"
)

// ServeBenchOptions configures RunServeBench.
type ServeBenchOptions struct {
	N           int    // 1D transform size (default 1024)
	Dtype       string // default "complex64"
	Requests    int    // per level (default 400)
	Concurrency []int  // levels (default 1, 4, 16)
	MaxInflight int    // admission bound (default 256)
}

func (o ServeBenchOptions) withDefaults() ServeBenchOptions {
	if o.N <= 0 {
		o.N = 1024
	}
	if o.Dtype == "" {
		o.Dtype = "complex64"
	}
	if o.Requests <= 0 {
		o.Requests = 400
	}
	if len(o.Concurrency) == 0 {
		o.Concurrency = []int{1, 4, 16}
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	return o
}

// ServeBenchRecord is the full BENCH_serve.json payload.
type ServeBenchRecord struct {
	Kind        string           `json:"kind"` // "xmt-serve-bench"
	N           int              `json:"n"`
	Dtype       string           `json:"dtype"`
	Requests    int              `json:"requests_per_level"`
	MaxInflight int              `json:"max_inflight"`
	GoMaxProcs  int              `json:"go_max_procs"`
	NumCPU      int              `json:"num_cpu"`
	GOOS        string           `json:"goos"`
	GOARCH      string           `json:"goarch"`
	Levels      []loadgen.Result `json:"levels"`
}

// Write emits the record as indented JSON.
func (r *ServeBenchRecord) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RunServeBench serves on a loopback port and measures every
// concurrency level sequentially (each level sees a warm plan cache
// after the first — the steady state a long-lived service runs in).
func RunServeBench(opts ServeBenchOptions) (*ServeBenchRecord, error) {
	opts = opts.withDefaults()
	srv := serve.New(serve.Config{MaxInflight: opts.MaxInflight})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve bench listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		hs.Shutdown(ctx)
	}()

	rec := &ServeBenchRecord{
		Kind: "xmt-serve-bench", N: opts.N, Dtype: opts.Dtype,
		Requests: opts.Requests, MaxInflight: opts.MaxInflight,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	base := "http://" + ln.Addr().String()
	for _, c := range opts.Concurrency {
		res, err := loadgen.Run(loadgen.Options{
			BaseURL:     base,
			Concurrency: c,
			Requests:    opts.Requests,
			N:           opts.N,
			Dtype:       opts.Dtype,
		})
		if err != nil {
			return nil, fmt.Errorf("serve bench at concurrency %d: %w", c, err)
		}
		if res.Errors > 0 {
			return nil, fmt.Errorf("serve bench at concurrency %d: %d/%d requests failed", c, res.Errors, opts.Requests)
		}
		rec.Levels = append(rec.Levels, *res)
	}
	return rec, nil
}
