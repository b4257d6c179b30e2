package main

import (
	"strings"
	"testing"
)

// okFlags returns a runnable baseline flag set; tests mutate one field.
func okFlags() cliFlags {
	return cliFlags{tcus: 1024, n: 32, reps: 3, traceEpoch: 256}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliFlags)
		wantErr string // empty = valid
	}{
		{"baseline", func(f *cliFlags) {}, ""},
		{"zero tcus", func(f *cliFlags) { f.tcus = 0 }, "-tcus"},
		{"n not power of two", func(f *cliFlags) { f.n = 100 }, "power of two"},
		{"zero sim reps", func(f *cliFlags) { f.bench = "sim"; f.reps = 0 }, "-reps"},
		{"zero host reps", func(f *cliFlags) { f.bench = "host"; f.reps = 0 }, "-reps"},
		{"trace with zero epoch", func(f *cliFlags) { f.tracePath = "t.json"; f.traceEpoch = 0 }, "-trace-epoch"},
		{"bad bench entry", func(f *cliFlags) { f.bench = "host,nope" }, "unknown -bench suite"},
		{"tiny host size", func(f *cliFlags) { f.bench = "host"; f.n = 1 }, ">= 2"},
		{"host size not power of two", func(f *cliFlags) { f.bench = "host"; f.n = 100 }, "power of two"},
		{"fault bench ok", func(f *cliFlags) { f.bench = "fault"; f.out = "BENCH_fault.json" }, ""},
		{"every suite ok", func(f *cliFlags) { f.bench = "host,sim,obs,fault,serve"; f.out = "-"; f.fftGate = 1.2 }, ""},
		{"o without bench", func(f *cliFlags) { f.out = "BENCH_sim.json" }, "requires -bench"},
		{"negative fft-gate", func(f *cliFlags) { f.bench = "host"; f.fftGate = -1 }, "-fft-gate"},
		{"fft-gate without host suite", func(f *cliFlags) { f.bench = "sim"; f.fftGate = 1.2 }, "requires -bench host"},
		{"bench with serve-obs", func(f *cliFlags) { f.bench = "obs"; f.serveObs = ":9100" }, "cannot be combined"},
		{"bench with checkpoint", func(f *cliFlags) { f.bench = "sim"; f.checkpoint = "s.ckpt" }, "cannot be combined"},
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
