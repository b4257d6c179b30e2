package xmt_test

// Differential resilience tests: the second and third determinism
// contracts of DESIGN.md §8, exercised end-to-end through the FFT
// workload (internal/core drives the machine, so these live in the
// external test package to avoid the import cycle).
//
//	protection contract — with faults injected and protection on, the
//	FFT's output is bit-identical to the fault-free run while its cycle
//	count strictly grows (the overhead is recovery, never corruption);
//	graceful degradation keeps every virtual thread executing, so the
//	host-side compute performed inside Program.Thread stays complete.
//
//	seed contract — a faulty run is a pure function of (plan, seed):
//	identical cycles and fault counters for every -sim-workers count.
//
// The CI fault matrix re-runs these under -race at several seeds and
// worker counts via the FAULT_SEED / FAULT_WORKERS environment knobs.

import (
	"os"
	"strconv"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fault"
	"xmtfft/internal/fft"
	"xmtfft/internal/xmt"
)

// envSeed returns the fault seed under test (FAULT_SEED, default 1).
func envSeed(t *testing.T) uint64 {
	v := os.Getenv("FAULT_SEED")
	if v == "" {
		return 1
	}
	s, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		t.Fatalf("FAULT_SEED=%q: %v", v, err)
	}
	return s
}

// envWorkers returns the sharded worker count under test
// (FAULT_WORKERS, default 4); the tests always compare it against the
// 1-worker serial driver.
func envWorkers(t *testing.T) int {
	v := os.Getenv("FAULT_WORKERS")
	if v == "" {
		return 4
	}
	w, err := strconv.Atoi(v)
	if err != nil || w < 1 {
		t.Fatalf("FAULT_WORKERS=%q: %v", v, err)
	}
	return w
}

// fftRun executes one 1D FFT on a fresh machine and returns its output
// bits, total cycles, and the machine counters.
func fftRun(t *testing.T, cfg config.Config, workers int, plan *fault.Plan) ([]complex64, uint64, xmt.Machine) {
	t.Helper()
	m, err := xmt.NewParallel(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		if err := m.EnableFaults(*plan); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := core.New1D(m, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Data {
		tr.Data[i] = complex(float32(i%17)-8, float32(i%13)-6)
	}
	run, err := tr.Run(fft.Forward)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]complex64, len(tr.Data))
	copy(out, tr.Data)
	return out, run.TotalCycles(), *m
}

func sameBits(a, b []complex64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestResilienceProtectionContract injects NoC drops/corruption and
// DRAM single-bit errors with full protection at two worker counts: output
// must be bit-identical to the fault-free run, cycles must strictly
// grow, and the recovery must be visible in the counters.
func TestResilienceProtectionContract(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	seed := envSeed(t)
	plan := &fault.Plan{Seed: seed, NoCDrop: 0.02, NoCCorrupt: 0.01, DRAMBitErr: 0.05}

	for _, workers := range []int{1, envWorkers(t)} {
		cleanOut, cleanCycles, _ := fftRun(t, cfg, workers, nil)
		faultOut, faultCycles, fm := fftRun(t, cfg, workers, plan)

		if !sameBits(cleanOut, faultOut) {
			t.Errorf("workers=%d: protected faulty output differs from fault-free output", workers)
		}
		if faultCycles <= cleanCycles {
			t.Errorf("workers=%d: faulty run %d cycles, not above fault-free %d",
				workers, faultCycles, cleanCycles)
		}
		c := fm.Counters
		if c.NoCDropped == 0 || c.NoCCorrupted == 0 || c.NoCRetransmits == 0 {
			t.Errorf("workers=%d: NoC recovery invisible: drops=%d corrupts=%d retransmits=%d",
				workers, c.NoCDropped, c.NoCCorrupted, c.NoCRetransmits)
		}
		if c.ECCCorrected == 0 {
			t.Errorf("workers=%d: no ECC corrections at ber=%g", workers, plan.DRAMBitErr)
		}
		if c.ECCUncorrectable != 0 || c.SilentFaults != 0 {
			t.Errorf("workers=%d: unexpected uncorrectable=%d silent=%d",
				workers, c.ECCUncorrectable, c.SilentFaults)
		}
	}
}

// TestResilienceSeedContract checks a faulty sharded run is a pure
// function of the seed: bit-identical cycles, output and fault counters
// between the serial driver and the FAULT_WORKERS-worker run, and a
// different fault realization under a different seed.
func TestResilienceSeedContract(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	seed := envSeed(t)
	plan := &fault.Plan{Seed: seed, NoCDrop: 0.03, NoCCorrupt: 0.01, DRAMBitErr: 0.03}

	refOut, refCycles, refM := fftRun(t, cfg, 1, plan)
	out, cycles, m := fftRun(t, cfg, envWorkers(t), plan)
	if cycles != refCycles {
		t.Errorf("workers=%d: cycles %d differ from serial driver's %d",
			envWorkers(t), cycles, refCycles)
	}
	if !sameBits(out, refOut) {
		t.Errorf("workers=%d: output differs from serial driver's", envWorkers(t))
	}
	if m.Counters != refM.Counters {
		t.Errorf("workers=%d: counters diverged\n got %+v\nwant %+v",
			envWorkers(t), m.Counters, refM.Counters)
	}

	// Re-running the same seed reproduces the run exactly.
	againOut, againCycles, againM := fftRun(t, cfg, 1, plan)
	if againCycles != refCycles || !sameBits(againOut, refOut) || againM.Counters != refM.Counters {
		t.Error("same seed did not reproduce the run")
	}

	// A different seed draws a different fault realization.
	other := *plan
	other.Seed = seed + 1000003
	_, otherCycles, otherM := fftRun(t, cfg, 1, &other)
	if otherCycles == refCycles && otherM.Counters == refM.Counters {
		t.Error("different seeds produced identical faulty runs")
	}
}

// TestQuarterClustersKilledFFTCompletes fail-stops 25% of the clusters
// and checks the FFT still completes with output bit-identical to the
// healthy run — graceful degradation preserves correctness, costing
// only cycles.
func TestQuarterClustersKilledFFTCompletes(t *testing.T) {
	cfg, err := config.FourK().Scaled(256)
	if err != nil {
		t.Fatal(err)
	}
	seed := envSeed(t)
	kills := fault.PickClusters(seed, cfg.Clusters/4, cfg.Clusters)
	if len(kills) == 0 {
		t.Fatalf("config %s too small to kill a quarter of %d clusters", cfg.Name, cfg.Clusters)
	}
	plan := &fault.Plan{Seed: seed, KillClusters: kills}

	for _, workers := range []int{1, envWorkers(t)} {
		cleanOut, _, _ := fftRun(t, cfg, workers, nil)
		out, _, m := fftRun(t, cfg, workers, plan)
		if !sameBits(cleanOut, out) {
			t.Errorf("workers=%d: degraded FFT output differs from healthy output", workers)
		}
		if got := m.DeadClusters(); len(got) != len(kills) {
			t.Errorf("workers=%d: DeadClusters() = %v, want %v", workers, got, kills)
		}
	}
}
