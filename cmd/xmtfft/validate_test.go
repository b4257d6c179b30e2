package main

import (
	"strings"
	"testing"
)

// ok returns a runnable baseline flag set; tests mutate one field each.
func okFlags() cliFlags {
	return cliFlags{n: 32, dims: 3, simWorkers: 1, traceEpoch: 256}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliFlags)
		wantErr string // empty = valid
	}{
		{"baseline", func(f *cliFlags) {}, ""},
		{"n not power of two", func(f *cliFlags) { f.n = 100 }, "power of two"},
		{"n zero", func(f *cliFlags) { f.n = 0 }, "power of two"},
		{"dims too big", func(f *cliFlags) { f.dims = 4 }, "-dims"},
		{"radix odd", func(f *cliFlags) { f.radix = 3 }, "-radix"},
		{"radix 8 ok", func(f *cliFlags) { f.radix = 8 }, ""},
		{"negative workers", func(f *cliFlags) { f.simWorkers = -1 }, "-sim-workers"},
		{"zero workers", func(f *cliFlags) { f.simWorkers = 0 }, "legacy serial engine"},
		{"negative tcus", func(f *cliFlags) { f.tcus = -4 }, "-tcus"},
		{"trace with zero epoch", func(f *cliFlags) { f.tracePath = "t.json"; f.traceEpoch = 0 }, "-trace-epoch"},
		{"trace under model", func(f *cliFlags) { f.model = true; f.tracePath = "t.json" }, "-model"},
		{"drop rate above 1", func(f *cliFlags) { f.faultNoCDrop = 1.5 }, "[0, 1]"},
		{"negative ber", func(f *cliFlags) { f.faultDRAMBER = -0.1 }, "[0, 1]"},
		{"noc rates sum above 1", func(f *cliFlags) { f.faultNoCDrop = 0.6; f.faultNoCCorrupt = 0.6 }, "exceed 1"},
		{"dram rates sum above 1", func(f *cliFlags) { f.faultDRAMBER = 0.7; f.faultDRAMDBER = 0.7 }, "exceed 1"},
		{"negative kill count", func(f *cliFlags) { f.faultKill = -1 }, "-fault-kill-clusters"},
		{"faults under model", func(f *cliFlags) { f.model = true; f.faultNoCDrop = 0.1 }, "-model"},
		{"watchdog under model", func(f *cliFlags) { f.model = true; f.watchdogWindow = 1000 }, "-model"},
		{"full fault plan ok", func(f *cliFlags) {
			f.faultNoCDrop = 0.02
			f.faultNoCCorrupt = 0.01
			f.faultDRAMBER = 0.05
			f.faultKill = 2
			f.watchdogWindow = 1 << 20
		}, ""},
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
