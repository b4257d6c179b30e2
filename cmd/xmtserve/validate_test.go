package main

import (
	"strings"
	"testing"
	"time"
)

// okFlags returns a runnable baseline flag set; tests mutate one field.
func okFlags() cliFlags {
	return cliFlags{
		maxInflight:   256,
		retryAfter:    time.Second,
		drainTimeout:  15 * time.Second,
		maxBody:       1 << 28,
		benchN:        1024,
		benchDtype:    "complex64",
		benchRequests: 400,
		loadConc:      8,
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliFlags)
		wantErr string // empty = valid
	}{
		{"baseline serve", func(f *cliFlags) {}, ""},
		{"load ok", func(f *cliFlags) { f.loadURL = "http://127.0.0.1:8123" }, ""},
		{"zero max-inflight", func(f *cliFlags) { f.maxInflight = 0 }, "-max-inflight"},
		{"zero retry-after", func(f *cliFlags) { f.retryAfter = 0 }, "-retry-after"},
		{"zero drain-timeout", func(f *cliFlags) { f.drainTimeout = 0 }, "-drain-timeout"},
		{"zero max-body", func(f *cliFlags) { f.maxBody = 0 }, "-max-body"},
		{"non-pow2 bench-n", func(f *cliFlags) { f.loadURL = "http://x"; f.benchN = 1000 }, "power of two"},
		{"bench-n ignored when serving", func(f *cliFlags) { f.benchN = 1000 }, ""},
		{"bad bench-dtype", func(f *cliFlags) { f.loadURL = "http://x"; f.benchDtype = "float32" }, "-bench-dtype"},
		{"zero bench-requests", func(f *cliFlags) { f.loadURL = "http://x"; f.benchRequests = 0 }, "-bench-requests"},
		{"load without scheme", func(f *cliFlags) { f.loadURL = "127.0.0.1:8123" }, "http(s)"},
		{"zero load-concurrency", func(f *cliFlags) { f.loadURL = "http://x"; f.loadConc = 0 }, "-load-concurrency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := okFlags()
			tc.mutate(&f)
			err := validateFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
