package main

// Flag validation, separated from main so it is a pure function over
// the parsed values and unit-testable. Violations are user errors:
// main reports them on stderr and exits with status 2, distinct from
// the status-1 runtime failures in fatal.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"xmtfft/internal/fft"
	"xmtfft/internal/harness"
)

// cliFlags is the subset of xmtbench's flags that can be invalid in
// ways flag parsing itself does not catch.
type cliFlags struct {
	tcus       int
	n          int
	reps       int
	tracePath  string
	utilSVG    string
	traceEpoch uint64

	bench   string
	out     string
	fftGate float64

	serveObs         string
	obsSnapshot      string
	obsSnapshotEvery time.Duration
	obsEpoch         uint64

	checkpoint      string
	checkpointEvery int
	resume          string
}

// validateFlags returns the first violation with an actionable message,
// or nil when the combination is runnable.
func validateFlags(f cliFlags) error {
	if f.tcus < 1 {
		return fmt.Errorf("-tcus must be >= 1, got %d", f.tcus)
	}
	if f.n < 2 || !fft.IsPowerOfTwo(f.n) {
		return fmt.Errorf("-n must be a power of two >= 2, got %d", f.n)
	}
	if f.reps < 1 {
		return fmt.Errorf("-reps must be >= 1, got %d", f.reps)
	}
	if (f.tracePath != "" || f.utilSVG != "") && f.traceEpoch == 0 {
		return fmt.Errorf("-trace-epoch must be positive when -trace or -util-svg is set")
	}
	var suites []string
	if f.bench != "" {
		suites = strings.Split(f.bench, ",")
	}
	for _, s := range suites {
		if !slices.Contains(harness.BenchSuites, s) {
			return fmt.Errorf("unknown -bench suite %q, want one of %s", s, strings.Join(harness.BenchSuites, ","))
		}
	}
	if f.out != "" && f.bench == "" {
		return fmt.Errorf("-o writes the -bench record and requires -bench")
	}
	if f.fftGate < 0 {
		return fmt.Errorf("-fft-gate must be >= 0 (0 disables the gate), got %g", f.fftGate)
	}
	if f.fftGate > 0 && !slices.Contains(suites, "host") {
		return fmt.Errorf("-fft-gate gates the host suite and requires -bench host")
	}
	if f.serveObs != "" || f.obsSnapshot != "" {
		if f.bench != "" {
			return fmt.Errorf("-serve-obs and -obs-snapshot watch the ablation run and cannot be combined with -bench")
		}
		if f.obsEpoch == 0 {
			return fmt.Errorf("-obs-epoch must be positive when -serve-obs or -obs-snapshot is set")
		}
	}
	if f.obsSnapshot != "" && f.obsSnapshotEvery <= 0 {
		return fmt.Errorf("-obs-snapshot-every must be positive, got %v", f.obsSnapshotEvery)
	}
	if (f.checkpoint != "" || f.resume != "") && f.bench != "" {
		return fmt.Errorf("-checkpoint and -resume cover the ablation sweep and cannot be combined with -bench")
	}
	if f.checkpoint != "" && f.checkpointEvery < 1 {
		return fmt.Errorf("-checkpoint-every must be >= 1 variant, got %d", f.checkpointEvery)
	}
	return nil
}
