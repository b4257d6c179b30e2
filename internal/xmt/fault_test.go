package xmt

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xmtfft/internal/config"
	"xmtfft/internal/fault"
	"xmtfft/internal/sim"
	"xmtfft/internal/trace"
)

// faultSuiteRun executes the shared differential workload suite on m.
func faultSuiteRun(t *testing.T, m *Machine) ([]SpawnResult, interface{}) {
	t.Helper()
	var results []SpawnResult
	for _, w := range diffWorkloads(m.Config().TCUs) {
		m.EnablePrefetch(w.prefetch)
		res, err := m.Spawn(w.threads, w.prog)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		results = append(results, res)
		m.AdvanceSerial(100)
	}
	return results, m.Counters
}

// TestZeroRatePlanIsZeroOverhead is the first determinism contract:
// enabling an empty fault plan (and an untriggered watchdog) must leave
// every cycle count and counter bit-identical at every worker count.
func TestZeroRatePlanIsZeroOverhead(t *testing.T) {
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
	for _, workers := range []int{1, 2} {
		base := build(workers)
		baseRes, baseCtr := faultSuiteRun(t, base)

		armed := build(workers)
		if err := armed.EnableFaults(fault.Plan{Seed: 123}); err != nil {
			t.Fatal(err)
		}
		armed.SetWatchdog(1 << 40) // installed, never fires
		gotRes, gotCtr := faultSuiteRun(t, armed)

		if !reflect.DeepEqual(gotRes, baseRes) {
			t.Errorf("workers=%d: zero-rate plan changed SpawnResults\n got %+v\nwant %+v",
				workers, gotRes, baseRes)
		}
		if !reflect.DeepEqual(gotCtr, baseCtr) {
			t.Errorf("workers=%d: zero-rate plan changed counters\n got %+v\nwant %+v",
				workers, gotCtr, baseCtr)
		}
	}
}

func TestEnableFaultsValidation(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableFaults(fault.Plan{NoCDrop: 1.5}); err == nil {
		t.Error("rate > 1 accepted")
	}
	if err := m.EnableFaults(fault.Plan{KillClusters: []int{cfg.Clusters}}); err == nil {
		t.Error("out-of-range kill cluster accepted")
	}
	if err := m.KillClusters([]int{-1}); err == nil {
		t.Error("negative kill cluster accepted")
	}
}

// TestKillClustersRemapsThreads kills a quarter of the clusters and
// checks graceful degradation: every virtual thread still runs exactly
// once, no thread is placed on a dead cluster, and the section slows
// down relative to the healthy machine.
func TestKillClustersRemapsThreads(t *testing.T) {
	cfg, err := config.FourK().Scaled(256)
	if err != nil {
		t.Fatal(err)
	}
	kills := fault.PickClusters(7, cfg.Clusters/4, cfg.Clusters)
	deadSet := map[int]bool{}
	for _, c := range kills {
		deadSet[c] = true
	}
	n := 3*cfg.TCUs + 11

	for _, workers := range []int{1, 4} {
		build := func() *Machine {
			m, err := NewParallel(cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		run := func(m *Machine) (SpawnResult, []uint32) {
			ran := make([]uint32, n)
			// Compute-bound threads: the makespan then scales with the
			// surviving TCU count, so the degraded run is measurably
			// slower (a memory-bound workload would hide the kills behind
			// the DRAM bottleneck).
			res, err := m.Spawn(n, ProgramFunc(func(id int, buf []Op) []Op {
				atomic.AddUint32(&ran[id], 1)
				return append(buf, ALU(2), FLOP(48), ALU(2))
			}))
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return res, ran
		}

		healthy := build()
		hres, _ := run(healthy)

		m := build()
		rec := trace.NewRecorder(0)
		m.AttachRecorder(rec)
		if err := m.EnableFaults(fault.Plan{Seed: 7, KillClusters: kills}); err != nil {
			t.Fatal(err)
		}
		if got := m.DeadClusters(); !reflect.DeepEqual(got, kills) {
			t.Fatalf("DeadClusters() = %v, want %v", got, kills)
		}
		res, ran := run(m)
		for id, c := range ran {
			if c != 1 {
				t.Fatalf("workers=%d: thread %d ran %d times, want 1", workers, id, c)
			}
		}
		if res.Ops.Threads != uint64(n) {
			t.Errorf("workers=%d: Threads counter %d, want %d", workers, res.Ops.Threads, n)
		}
		deadStarts := 0
		sawDeadMark := false
		for _, ev := range rec.Events {
			switch ev.Kind {
			case trace.EvThreadStart:
				if deadSet[int(ev.Aux)] {
					deadStarts++
				}
			case trace.EvFault:
				if trace.FaultKind(ev.Aux) == trace.FaultClusterDead && deadSet[int(ev.TCU)] {
					sawDeadMark = true
				}
			}
		}
		if deadStarts > 0 {
			t.Errorf("workers=%d: %d threads started on dead clusters", workers, deadStarts)
		}
		if !sawDeadMark {
			t.Errorf("workers=%d: no cluster-dead trace event", workers)
		}
		if res.Cycles() <= hres.Cycles() {
			t.Errorf("workers=%d: degraded run (%d cyc) not slower than healthy (%d cyc)",
				workers, res.Cycles(), hres.Cycles())
		}
	}
}

func TestAllClustersDeadFailsSpawn(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, cfg.Clusters)
	for i := range all {
		all[i] = i
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.KillClusters(all); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(8, ProgramFunc(func(id int, buf []Op) []Op {
		return append(buf, FLOP(1))
	})); err == nil {
		t.Fatal("spawn on an all-dead machine succeeded")
	}
}

// TestWatchdogAbortsRetransmitLivelock induces the canonical livelock —
// a 100% packet-loss NoC, so every load escalates forever — and checks
// every worker count converts it into a clean *sim.WatchdogError carrying a
// queue-state dump, within a wall-clock deadline. Afterwards the
// machine is poisoned: further spawns fail.
func TestWatchdogAbortsRetransmitLivelock(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		m, err := NewParallel(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.EnableFaults(fault.Plan{Seed: 1, NoCDrop: 1.0}); err != nil {
			t.Fatal(err)
		}
		m.SetWatchdog(200_000)

		type outcome struct {
			res SpawnResult
			err error
		}
		ch := make(chan outcome, 1)
		go func() {
			res, err := m.Spawn(cfg.TCUs, ProgramFunc(func(id int, buf []Op) []Op {
				return append(buf, Load(uint64(id)*config.CacheLineBytes), FLOP(1))
			}))
			ch <- outcome{res, err}
		}()
		var got outcome
		select {
		case got = <-ch:
		case <-time.After(60 * time.Second):
			t.Fatalf("workers=%d: watchdog did not abort within deadline", workers)
		}
		if got.err == nil {
			t.Fatalf("workers=%d: spawn under total packet loss succeeded: %+v", workers, got.res)
		}
		we, ok := got.err.(*sim.WatchdogError)
		if !ok {
			t.Fatalf("workers=%d: error is %T, want *sim.WatchdogError: %v", workers, got.err, got.err)
		}
		if !strings.Contains(we.Error(), "watchdog") {
			t.Errorf("workers=%d: error text missing watchdog: %q", workers, we.Error())
		}
		if !strings.Contains(we.Dump, "shard 0") || !strings.Contains(we.Dump, "pending=") {
			t.Errorf("workers=%d: dump missing queue state: %q", workers, we.Dump)
		}
		if _, err := m.Spawn(4, ProgramFunc(func(id int, buf []Op) []Op {
			return append(buf, FLOP(1))
		})); err == nil {
			t.Errorf("workers=%d: poisoned machine accepted a new spawn", workers)
		}
	}
}
