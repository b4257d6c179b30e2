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
		benchConc:     "1,4,16",
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
		{"selftest ok", func(f *cliFlags) { f.selftest = true }, ""},
		{"load ok", func(f *cliFlags) { f.loadURL = "http://127.0.0.1:8123" }, ""},
		{"zero max-inflight", func(f *cliFlags) { f.maxInflight = 0 }, "-max-inflight"},
		{"zero retry-after", func(f *cliFlags) { f.retryAfter = 0 }, "-retry-after"},
		{"zero drain-timeout", func(f *cliFlags) { f.drainTimeout = 0 }, "-drain-timeout"},
		{"zero max-body", func(f *cliFlags) { f.maxBody = 0 }, "-max-body"},
		{"selftest and load exclusive", func(f *cliFlags) { f.selftest = true; f.loadURL = "http://x" }, "exclusive"},
		{"bench-out without selftest", func(f *cliFlags) { f.benchOut = "BENCH_serve.json" }, "requires -selftest"},
		{"bench-out with selftest", func(f *cliFlags) { f.selftest = true; f.benchOut = "-" }, ""},
		{"non-pow2 bench-n", func(f *cliFlags) { f.selftest = true; f.benchN = 1000 }, "power of two"},
		{"bench-n ignored when serving", func(f *cliFlags) { f.benchN = 1000 }, ""},
		{"bad bench-dtype", func(f *cliFlags) { f.selftest = true; f.benchDtype = "float32" }, "-bench-dtype"},
		{"zero bench-requests", func(f *cliFlags) { f.selftest = true; f.benchRequests = 0 }, "-bench-requests"},
		{"bad concurrency entry", func(f *cliFlags) { f.selftest = true; f.benchConc = "1,x" }, "-bench-concurrency"},
		{"zero concurrency entry", func(f *cliFlags) { f.selftest = true; f.benchConc = "1,0" }, ">= 1"},
		{"concurrency ignored when serving", func(f *cliFlags) { f.benchConc = "garbage" }, ""},
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

func TestParseIntList(t *testing.T) {
	got, err := parseIntList("-x", " 1, 4,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("parseIntList = %v", got)
	}
	if _, err := parseIntList("-x", "1,,3"); err == nil {
		t.Fatal("empty entry accepted")
	}
}
