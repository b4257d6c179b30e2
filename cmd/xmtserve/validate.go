package main

// Flag validation, separated from main so it is a pure function over
// the parsed values and unit-testable. Violations are user errors:
// main reports them on stderr and exits with status 2, distinct from
// the status-1 runtime failures in fatal.

import (
	"fmt"
	"strings"
	"time"

	"xmtfft/internal/fft"
	"xmtfft/internal/serve"
)

// cliFlags is the subset of xmtserve's flags that can be invalid in
// ways flag parsing itself does not catch.
type cliFlags struct {
	maxInflight  int
	retryAfter   time.Duration
	drainTimeout time.Duration
	maxBody      int64

	loadURL       string
	loadConc      int
	benchN        int
	benchDtype    string
	benchRequests int
}

// validateFlags returns the first violation with an actionable message,
// or nil when the combination is runnable.
func validateFlags(f cliFlags) error {
	if f.maxInflight < 1 {
		return fmt.Errorf("-max-inflight must be >= 1, got %d", f.maxInflight)
	}
	if f.retryAfter <= 0 {
		return fmt.Errorf("-retry-after must be positive, got %v", f.retryAfter)
	}
	if f.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", f.drainTimeout)
	}
	if f.maxBody < 1 {
		return fmt.Errorf("-max-body must be >= 1, got %d", f.maxBody)
	}
	if f.loadURL != "" {
		if !strings.HasPrefix(f.loadURL, "http://") && !strings.HasPrefix(f.loadURL, "https://") {
			return fmt.Errorf("-load must be an http(s) base URL, got %q", f.loadURL)
		}
		if f.loadConc < 1 {
			return fmt.Errorf("-load-concurrency must be >= 1, got %d", f.loadConc)
		}
		if !fft.IsPowerOfTwo(f.benchN) {
			return fmt.Errorf("-bench-n must be a power of two, got %d", f.benchN)
		}
		if f.benchN > serve.MaxElems {
			return fmt.Errorf("-bench-n must be <= %d, got %d", serve.MaxElems, f.benchN)
		}
		if f.benchDtype != "complex64" && f.benchDtype != "complex128" {
			return fmt.Errorf("-bench-dtype must be complex64 or complex128, got %q", f.benchDtype)
		}
		if f.benchRequests < 1 {
			return fmt.Errorf("-bench-requests must be >= 1, got %d", f.benchRequests)
		}
	}
	return nil
}
