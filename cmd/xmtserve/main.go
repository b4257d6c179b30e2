// Command xmtserve is the FFT-as-a-service front end: an HTTP server
// that executes 1D/2D/3D transform requests (complex64/complex128,
// forward/inverse, optionally batched), each in its own handler on the
// shared plan from the concurrency-safe plan cache, with admission
// control (429 + Retry-After past the in-flight budget) and graceful
// drain on SIGTERM/SIGINT. Live observability — /metrics (OpenMetrics),
// /progress, /debug/pprof/* — rides on the same port via the harness
// observability surface.
//
// Usage:
//
//	xmtserve                              # serve on :8123
//	xmtserve -addr :9000 -max-inflight 64
//	xmtserve -load http://host:8123 -load-concurrency 16 -bench-requests 500
//
// The in-process latency record (BENCH_serve.json) is the serve suite
// of `xmtbench -bench serve`.
//
// POST /v1/transform with a JSON document like
//
//	{"dims":[1024],"dtype":"complex64","dir":"forward","data":[re,im,...]}
//
// answers with the transformed samples; see internal/serve for the
// full wire contract (norm, batch layouts, error shapes).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xmtfft/internal/harness"
	"xmtfft/internal/serve"
	"xmtfft/internal/serve/loadgen"
)

func main() {
	addr := flag.String("addr", ":8123", "listen address for serve mode")
	maxInflight := flag.Int("max-inflight", 256, "admitted-but-unfinished request budget; arrivals beyond it get 429 + Retry-After")
	retryAfter := flag.Duration("retry-after", time.Second, "backoff hint on 429/503 responses (rounded up to whole seconds)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-drain budget after SIGTERM before in-flight requests are abandoned")
	maxBody := flag.Int64("max-body", 1<<28, "request body size limit in bytes")

	benchN := flag.Int("bench-n", 1024, "with -load: 1D transform size")
	benchDtype := flag.String("bench-dtype", "complex64", "with -load: element type (complex64 or complex128)")
	benchRequests := flag.Int("bench-requests", 400, "with -load: total requests")

	loadURL := flag.String("load", "", "client mode: drive a running server at this base URL with the load generator and print the measurement")
	loadConc := flag.Int("load-concurrency", 8, "with -load: worker goroutines")

	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logJSON := flag.Bool("log-json", false, "log JSON lines instead of text")
	flag.Parse()

	if _, err := harness.SetupLogger(*logLevel, *logJSON); err != nil {
		usageError(err)
	}
	f := cliFlags{
		maxInflight: *maxInflight, retryAfter: *retryAfter,
		drainTimeout: *drainTimeout, maxBody: *maxBody,
		benchN: *benchN, benchDtype: *benchDtype, benchRequests: *benchRequests,
		loadURL: *loadURL, loadConc: *loadConc,
	}
	if err := validateFlags(f); err != nil {
		usageError(err)
	}

	var err error
	if *loadURL != "" {
		err = runLoad(f)
	} else {
		err = runServe(*addr, f)
	}
	if err != nil {
		fatal(err)
	}
}

// runServe is the long-running server mode: transform routes plus the
// observability surface on one port, drained gracefully on SIGTERM.
func runServe(addr string, f cliFlags) error {
	obs := harness.NewObs()
	srv := serve.New(serve.Config{
		MaxInflight:  f.maxInflight,
		MaxBodyBytes: f.maxBody,
		RetryAfter:   f.retryAfter,
		Registry:     obs.Registry,
		Fallback:     obs.Handler(),
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	slog.Info("xmtserve listening", "addr", ln.Addr().String(), "max_inflight", f.maxInflight)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	slog.Info("draining", "timeout", f.drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), f.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		hs.Close()
		return err
	}
	if err := hs.Shutdown(dctx); err != nil {
		return err
	}
	slog.Info("drained, bye")
	return nil
}

// runLoad drives an external server.
func runLoad(f cliFlags) error {
	res, err := loadgen.Run(loadgen.Options{
		BaseURL:     f.loadURL,
		Concurrency: f.loadConc,
		Requests:    f.benchRequests,
		N:           f.benchN,
		Dtype:       f.benchDtype,
	})
	if err != nil {
		return err
	}
	if res.Errors > 0 {
		return fmt.Errorf("load run: %d/%d requests failed", res.Errors, res.Requests)
	}
	fmt.Printf("load %s: concurrency=%d requests=%d\n", f.loadURL, res.Concurrency, res.Requests)
	fmt.Printf("p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  max %.3f ms\n", res.P50Ms, res.P90Ms, res.P99Ms, res.MaxMs)
	fmt.Printf("throughput %.1f req/s, %d rejections retried\n", res.Throughput, res.Rejected429)
	return nil
}

// fatal reports a runtime failure through the structured logger and
// exits with status 1.
func fatal(err error) {
	slog.Error("xmtserve failed", "err", err)
	os.Exit(1)
}

// usageError reports an invalid flag combination and exits with the
// conventional usage-error status 2.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "xmtserve:", err)
	fmt.Fprintln(os.Stderr, "run with -h for flag documentation")
	os.Exit(2)
}
