package xmt

import (
	"testing"

	"xmtfft/internal/config"
)

// Snapshot coverage: snapshots are defined to be read at spawn
// boundaries (all shards parked), where they must be bit-identical
// across worker counts, and the counters with an exact definition must
// match the op-stream oracle.

// snapshotSuite runs the differential workload suite, capturing a
// snapshot at every spawn boundary.
func snapshotSuite(t *testing.T, m *Machine) []Snapshot {
	t.Helper()
	snaps := []Snapshot{m.Snapshot()}
	for _, w := range diffWorkloads(m.Config().TCUs) {
		m.EnablePrefetch(w.prefetch)
		if _, err := m.Spawn(w.threads, w.prog); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		snaps = append(snaps, m.Snapshot())
		m.AdvanceSerial(50)
	}
	return snaps
}

func TestShardedSnapshotWorkerCountInvariance(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) *Machine {
		m, err := NewParallel(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := snapshotSuite(t, build(1))
	for _, workers := range []int{2, 4} {
		got := snapshotSuite(t, build(workers))
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d snapshots, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d: snapshot %d diverged\n got %+v\nwant %+v",
					workers, i, got[i], ref[i])
			}
		}
	}
	// Sanity: the suite actually consumed resources.
	last := ref[len(ref)-1]
	if last.FPUBusy == 0 || last.LSUBusy == 0 || last.DRAMBusy == 0 || last.NoCPackets == 0 {
		t.Errorf("final snapshot has idle resources: %+v", last)
	}
}

// TestSnapshotMatchesOpOracleAtBoundaries ties the snapshot counters
// with an exact definition to the op-stream oracle at every spawn
// boundary: FPUBusy (one slot per FLOP), LSUBusy (one slot per load or
// store issue) and NoCPackets (request + reply per load, request per
// store). DRAMBusy has no engine-independent definition and is pinned
// by the core package's table test instead.
func TestSnapshotMatchesOpOracleAtBoundaries(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snaps := snapshotSuite(t, m)
	var want Snapshot
	for i, w := range diffWorkloads(cfg.TCUs) {
		o := opOracle(w.threads, w.prog)
		want.FPUBusy += o.FPOps
		want.LSUBusy += o.Loads + o.Stores
		want.NoCPackets += 2*o.Loads + o.Stores
		s := snaps[i+1]
		if s.FPUBusy != want.FPUBusy || s.LSUBusy != want.LSUBusy || s.NoCPackets != want.NoCPackets {
			t.Errorf("boundary %d: snapshot (fpu=%d lsu=%d noc=%d), oracle (fpu=%d lsu=%d noc=%d)",
				i+1, s.FPUBusy, s.LSUBusy, s.NoCPackets, want.FPUBusy, want.LSUBusy, want.NoCPackets)
		}
	}
	c := m.Counters
	if c.FPOps != want.FPUBusy || c.Loads+c.Stores != want.LSUBusy {
		t.Errorf("machine counters %+v disagree with the oracle totals %+v", c, want)
	}
}
