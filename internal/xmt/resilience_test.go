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
//	identical cycles and fault counters on every rerun.
//
// The CI fault matrix re-runs these under -race at two seeds via the
// FAULT_SEED environment knob.

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

// fftRun executes one 1D FFT on a fresh machine and returns its output
// bits, total cycles, and the machine counters.
func fftRun(t *testing.T, cfg config.Config, plan *fault.Plan) ([]complex64, uint64, xmt.Machine) {
	t.Helper()
	m, err := xmt.New(cfg)
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
// DRAM single-bit errors with full protection: output must be
// bit-identical to the fault-free run, cycles must strictly grow, and
// the recovery must be visible in the counters.
func TestResilienceProtectionContract(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	seed := envSeed(t)
	plan := &fault.Plan{Seed: seed, NoCDrop: 0.02, NoCCorrupt: 0.01, DRAMBitErr: 0.05}

	cleanOut, cleanCycles, _ := fftRun(t, cfg, nil)
	faultOut, faultCycles, fm := fftRun(t, cfg, plan)

	if !sameBits(cleanOut, faultOut) {
		t.Error("protected faulty output differs from fault-free output")
	}
	if faultCycles <= cleanCycles {
		t.Errorf("faulty run %d cycles, not above fault-free %d", faultCycles, cleanCycles)
	}
	c := fm.Counters
	if c.NoCDropped == 0 || c.NoCCorrupted == 0 || c.NoCRetransmits == 0 {
		t.Errorf("NoC recovery invisible: drops=%d corrupts=%d retransmits=%d",
			c.NoCDropped, c.NoCCorrupted, c.NoCRetransmits)
	}
	if c.ECCCorrected == 0 {
		t.Errorf("no ECC corrections at ber=%g", plan.DRAMBitErr)
	}
	if c.ECCUncorrectable != 0 || c.SilentFaults != 0 {
		t.Errorf("unexpected uncorrectable=%d silent=%d", c.ECCUncorrectable, c.SilentFaults)
	}
}

// TestResilienceSeedContract checks a faulty run is a pure function of
// the seed: bit-identical cycles, output and fault counters when the
// same seed runs again, and a different fault realization under a
// different seed.
func TestResilienceSeedContract(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	seed := envSeed(t)
	plan := &fault.Plan{Seed: seed, NoCDrop: 0.03, NoCCorrupt: 0.01, DRAMBitErr: 0.03}

	refOut, refCycles, refM := fftRun(t, cfg, plan)

	// Re-running the same seed reproduces the run exactly.
	againOut, againCycles, againM := fftRun(t, cfg, plan)
	if againCycles != refCycles {
		t.Errorf("rerun took %d cycles, first run %d", againCycles, refCycles)
	}
	if !sameBits(againOut, refOut) {
		t.Error("rerun output differs from the first run's")
	}
	if againM.Counters != refM.Counters {
		t.Errorf("counters diverged\n got %+v\nwant %+v", againM.Counters, refM.Counters)
	}

	// A different seed draws a different fault realization.
	other := *plan
	other.Seed = seed + 1000003
	_, otherCycles, otherM := fftRun(t, cfg, &other)
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

	cleanOut, _, _ := fftRun(t, cfg, nil)
	out, _, m := fftRun(t, cfg, plan)
	if !sameBits(cleanOut, out) {
		t.Error("degraded FFT output differs from healthy output")
	}
	if got := m.DeadClusters(); len(got) != len(kills) {
		t.Errorf("DeadClusters() = %v, want %v", got, kills)
	}
}
