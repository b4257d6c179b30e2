package main

import (
	"strings"
	"testing"
)

// okFlags returns a runnable baseline flag set; tests mutate one field.
func okFlags() cliFlags {
	return cliFlags{
		tcus: 1024, n: 32, simReps: 3, hostReps: 1, traceEpoch: 256,
		hostSizes: "128,256", faultRates: "0.005,0.02",
	}
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
		{"zero sim reps", func(f *cliFlags) { f.simReps = 0 }, "-sim-reps"},
		{"negative host workers", func(f *cliFlags) { f.hostWorkers = -1 }, "-host-workers"},
		{"zero host reps", func(f *cliFlags) { f.hostReps = 0 }, "-host-reps"},
		{"trace with zero epoch", func(f *cliFlags) { f.tracePath = "t.json"; f.traceEpoch = 0 }, "-trace-epoch"},
		{"bad host size entry", func(f *cliFlags) { f.hostBench = "-"; f.hostSizes = "128,nope" }, "-host-n"},
		{"tiny host size", func(f *cliFlags) { f.hostBench = "-"; f.hostSizes = "1" }, ">= 2"},
		{"host size not power of two", func(f *cliFlags) { f.hostBench = "-"; f.hostSizes = "64,100" }, "powers of two"},
		{"bad fault rate entry", func(f *cliFlags) { f.faultBench = "-"; f.faultRates = "0.1,high" }, "-fault-rates"},
		{"fault rate above 1", func(f *cliFlags) { f.faultBench = "-"; f.faultRates = "2" }, "[0, 1]"},
		{"fault bench ok", func(f *cliFlags) { f.faultBench = "BENCH_fault.json" }, ""},
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
