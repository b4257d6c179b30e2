package main

// Flag validation, separated from main so it is a pure function over
// the parsed values and unit-testable. Violations are user errors, not
// program failures: main reports them on stderr and exits with status 2
// (the conventional usage-error code), distinct from the status-1
// runtime failures in fatal.

import (
	"fmt"
	"time"

	"xmtfft/internal/fft"
)

// cliFlags is the subset of xmtfft's flags that can be invalid in ways
// flag parsing itself does not catch.
type cliFlags struct {
	n          int
	dims       int
	radix      int
	simWorkers int
	tcus       int
	model      bool
	coarse     bool
	tracePath  string
	utilSVG    string
	traceEpoch uint64

	checkpoint      string
	checkpointEvery int
	resume          string

	serveObs         string
	obsSnapshot      string
	obsSnapshotEvery time.Duration
	obsEpoch         uint64

	faultNoCDrop    float64
	faultNoCCorrupt float64
	faultDRAMBER    float64
	faultDRAMDBER   float64
	faultKill       int
	watchdogWindow  uint64
}

// rate01 checks a probability flag.
func rate01(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("%s is a probability and must be in [0, 1], got %g", name, v)
	}
	return nil
}

// validateFlags returns the first violation with an actionable message,
// or nil when the combination is runnable.
func validateFlags(f cliFlags) error {
	if !fft.IsPowerOfTwo(f.n) {
		return fmt.Errorf("-n must be a power of two, got %d (try %d)", f.n, nextPow2(f.n))
	}
	if f.dims < 1 || f.dims > 3 {
		return fmt.Errorf("-dims must be 1, 2 or 3, got %d", f.dims)
	}
	switch f.radix {
	case 0, 2, 4, 8:
	default:
		return fmt.Errorf("-radix must be 2, 4 or 8 (or 0 for greedy), got %d", f.radix)
	}
	if f.simWorkers < 1 {
		return fmt.Errorf("-sim-workers must be >= 1 (the legacy serial engine that 0 selected has been removed), got %d", f.simWorkers)
	}
	if f.tcus < 0 {
		return fmt.Errorf("-tcus must be >= 0 (0 keeps the full machine size), got %d", f.tcus)
	}
	if (f.tracePath != "" || f.utilSVG != "") && f.traceEpoch == 0 {
		return fmt.Errorf("-trace-epoch must be positive when -trace or -util-svg is set")
	}
	if f.model && (f.tracePath != "" || f.utilSVG != "") {
		return fmt.Errorf("-trace and -util-svg require detailed simulation (drop -model)")
	}
	if f.model && (f.serveObs != "" || f.obsSnapshot != "") {
		return fmt.Errorf("-serve-obs and -obs-snapshot require detailed simulation (drop -model)")
	}
	if (f.serveObs != "" || f.obsSnapshot != "") && f.obsEpoch == 0 {
		return fmt.Errorf("-obs-epoch must be positive when -serve-obs or -obs-snapshot is set")
	}
	if f.obsSnapshot != "" && f.obsSnapshotEvery <= 0 {
		return fmt.Errorf("-obs-snapshot-every must be positive, got %v", f.obsSnapshotEvery)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"-fault-noc-drop", f.faultNoCDrop},
		{"-fault-noc-corrupt", f.faultNoCCorrupt},
		{"-fault-dram-ber", f.faultDRAMBER},
		{"-fault-dram-dber", f.faultDRAMDBER},
	} {
		if err := rate01(r.name, r.v); err != nil {
			return err
		}
	}
	if s := f.faultNoCDrop + f.faultNoCCorrupt; s > 1 {
		return fmt.Errorf("-fault-noc-drop + -fault-noc-corrupt must not exceed 1, got %g", s)
	}
	if s := f.faultDRAMBER + f.faultDRAMDBER; s > 1 {
		return fmt.Errorf("-fault-dram-ber + -fault-dram-dber must not exceed 1, got %g", s)
	}
	if f.faultKill < 0 {
		return fmt.Errorf("-fault-kill-clusters is a cluster count and must be >= 0, got %d", f.faultKill)
	}
	if f.model && (f.faultNoCDrop > 0 || f.faultNoCCorrupt > 0 || f.faultDRAMBER > 0 ||
		f.faultDRAMDBER > 0 || f.faultKill > 0 || f.watchdogWindow > 0) {
		return fmt.Errorf("fault injection requires detailed simulation (drop -model)")
	}
	if f.checkpoint != "" || f.resume != "" {
		if f.model {
			return fmt.Errorf("-checkpoint and -resume require detailed simulation (drop -model)")
		}
		if f.coarse {
			return fmt.Errorf("-checkpoint and -resume cover the fine-grained kernel only (drop -coarse)")
		}
	}
	if f.checkpoint != "" && f.checkpointEvery < 1 {
		return fmt.Errorf("-checkpoint-every must be >= 1 phase, got %d", f.checkpointEvery)
	}
	return nil
}

// nextPow2 suggests the next power of two >= n (for error messages).
func nextPow2(n int) int {
	p := 1
	for p < n && p < 1<<30 {
		p <<= 1
	}
	return p
}
