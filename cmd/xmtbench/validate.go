package main

// Flag validation, separated from main so it is a pure function over
// the parsed values and unit-testable. Violations are user errors:
// main reports them on stderr and exits with status 2, distinct from
// the status-1 runtime failures in fatal.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"xmtfft/internal/fft"
)

// cliFlags is the subset of xmtbench's flags that can be invalid in
// ways flag parsing itself does not catch.
type cliFlags struct {
	tcus        int
	n           int
	simReps     int
	hostWorkers int
	hostReps    int
	tracePath   string
	utilSVG     string
	traceEpoch  uint64

	simBench   string
	hostBench  string
	hostSizes  string
	fftGate    float64
	faultBench string
	faultRates string
	obsBench   string

	serveObs         string
	obsSnapshot      string
	obsSnapshotEvery time.Duration
	obsEpoch         uint64

	checkpoint      string
	checkpointEvery int
	resume          string
}

// parseIntList parses a comma-separated integer list flag.
func parseIntList(flagName, list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %w", flagName, s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseRateList parses a comma-separated probability list flag.
func parseRateList(flagName, list string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %w", flagName, s, err)
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("%s entries are probabilities and must be in [0, 1], got %g", flagName, v)
		}
		out = append(out, v)
	}
	return out, nil
}

// validateFlags returns the first violation with an actionable message,
// or nil when the combination is runnable.
func validateFlags(f cliFlags) error {
	if f.tcus < 1 {
		return fmt.Errorf("-tcus must be >= 1, got %d", f.tcus)
	}
	if !fft.IsPowerOfTwo(f.n) {
		return fmt.Errorf("-n must be a power of two, got %d", f.n)
	}
	if f.simReps < 1 {
		return fmt.Errorf("-sim-reps must be >= 1, got %d", f.simReps)
	}
	if f.hostWorkers < 0 {
		return fmt.Errorf("-host-workers must be >= 0 (0 = GOMAXPROCS), got %d", f.hostWorkers)
	}
	if f.hostReps < 1 {
		return fmt.Errorf("-host-reps must be >= 1, got %d", f.hostReps)
	}
	if (f.tracePath != "" || f.utilSVG != "") && f.traceEpoch == 0 {
		return fmt.Errorf("-trace-epoch must be positive when -trace or -util-svg is set")
	}
	if f.fftGate < 0 {
		return fmt.Errorf("-fft-gate must be >= 0 (0 disables the gate), got %g", f.fftGate)
	}
	if f.fftGate > 0 && f.hostBench == "" {
		return fmt.Errorf("-fft-gate requires -host-bench")
	}
	if f.hostBench != "" {
		sizes, err := parseIntList("-host-n", f.hostSizes)
		if err != nil {
			return err
		}
		for _, n := range sizes {
			if n < 2 || !fft.IsPowerOfTwo(n) {
				return fmt.Errorf("-host-n entries must be powers of two >= 2, got %d", n)
			}
		}
	}
	if f.faultBench != "" {
		if _, err := parseRateList("-fault-rates", f.faultRates); err != nil {
			return err
		}
	}
	if f.serveObs != "" || f.obsSnapshot != "" {
		if f.hostBench != "" || f.simBench != "" || f.faultBench != "" || f.obsBench != "" {
			return fmt.Errorf("-serve-obs and -obs-snapshot watch the ablation run and cannot be combined with a bench mode")
		}
		if f.obsEpoch == 0 {
			return fmt.Errorf("-obs-epoch must be positive when -serve-obs or -obs-snapshot is set")
		}
	}
	if f.obsSnapshot != "" && f.obsSnapshotEvery <= 0 {
		return fmt.Errorf("-obs-snapshot-every must be positive, got %v", f.obsSnapshotEvery)
	}
	if f.checkpoint != "" || f.resume != "" {
		if f.hostBench != "" || f.simBench != "" || f.faultBench != "" || f.obsBench != "" {
			return fmt.Errorf("-checkpoint and -resume cover the ablation sweep and cannot be combined with a bench mode")
		}
	}
	if f.checkpoint != "" && f.checkpointEvery < 1 {
		return fmt.Errorf("-checkpoint-every must be >= 1 variant, got %d", f.checkpointEvery)
	}
	return nil
}
