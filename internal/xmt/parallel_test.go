package xmt

import (
	"reflect"
	"sync/atomic"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/stats"
	"xmtfft/internal/trace"
)

// Differential harness for the sharded engine: the same machine
// configuration and workload run at several worker counts must produce
// bit-identical results — SpawnResult (including utilization floats),
// machine counters, and, when a recorder is attached, the merged event
// stream and epoch samples. Worker count may only change wall-clock
// time, never simulation output.

// diffWorkload is one workload of the differential suite.
type diffWorkload struct {
	name     string
	threads  int
	prefetch bool
	prog     ProgramFunc
}

// diffWorkloads builds the suite for a config with the given TCU count.
// Thread counts exceed the machine width so the prefix-sum reallocation
// path (multi-wave dynamics) is exercised.
func diffWorkloads(tcus int) []diffWorkload {
	return []diffWorkload{
		{name: "compute", threads: 3*tcus + 5, prog: func(id int, buf []Op) []Op {
			return append(buf, ALU(3+id%4), FLOP(8+id%7), ALU(2), FLOP(5))
		}},
		{name: "streaming-loads", threads: 2*tcus + 3, prog: func(id int, buf []Op) []Op {
			base := uint64(id) * 4 * config.CacheLineBytes
			for k := 0; k < 6; k++ {
				buf = append(buf, Load(base+uint64(k)*8))
			}
			return append(buf, FLOP(4))
		}},
		{name: "strided-loads-prefetch", threads: 2 * tcus, prefetch: true,
			prog: func(id int, buf []Op) []Op {
				base := uint64(id) * 16 * config.CacheLineBytes
				for k := 0; k < 4; k++ {
					buf = append(buf, Load(base+uint64(k)*config.CacheLineBytes))
				}
				return append(buf, FLOP(2))
			}},
		{name: "store-heavy", threads: 2*tcus + 1, prog: func(id int, buf []Op) []Op {
			base := uint64(id) * 6 * 8
			buf = append(buf, FLOP(3))
			for k := 0; k < 6; k++ {
				buf = append(buf, Store(base+uint64(k)*8))
			}
			return buf
		}},
		{name: "mixed", threads: 4*tcus + 7, prog: func(id int, buf []Op) []Op {
			base := uint64(id%64) * 3 * config.CacheLineBytes
			buf = append(buf, ALU(2), PS(), Load(base), Load(base+8))
			buf = append(buf, FLOP(6), Store(base+16), PS(), FLOP(1))
			return buf
		}},
	}
}

// runSharded executes the workload suite on a fresh sharded machine and
// returns everything comparable: per-spawn results, final counters, and
// the trace stream.
type shardedRun struct {
	results []SpawnResult
	ctrs    interface{}
	events  []trace.Event
	samples []trace.Sample
}

func runShardedSuite(t *testing.T, cfg config.Config, workers int) shardedRun {
	t.Helper()
	m, err := NewParallel(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Workers(); got != workers {
		t.Fatalf("Workers() = %d, want %d", got, workers)
	}
	rec := trace.NewRecorder(64)
	rec.Label = cfg.Name
	m.AttachRecorder(rec)
	var out shardedRun
	for _, w := range diffWorkloads(cfg.TCUs) {
		m.EnablePrefetch(w.prefetch)
		m.Section(w.name)
		res, err := m.Spawn(w.threads, w.prog)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		out.results = append(out.results, res)
		m.AdvanceSerial(100)
	}
	out.ctrs = m.Counters
	out.events = rec.Events
	out.samples = rec.Samples
	return out
}

func TestShardedWorkerCountInvariance(t *testing.T) {
	for _, scale := range []int{64, 256} {
		cfg, err := config.FourK().Scaled(scale)
		if err != nil {
			t.Fatal(err)
		}
		ref := runShardedSuite(t, cfg, 1)
		for _, workers := range []int{2, 4, 7} {
			got := runShardedSuite(t, cfg, workers)
			if !reflect.DeepEqual(got.results, ref.results) {
				t.Errorf("%s workers=%d: SpawnResults diverged\n got %+v\nwant %+v",
					cfg.Name, workers, got.results, ref.results)
			}
			if !reflect.DeepEqual(got.ctrs, ref.ctrs) {
				t.Errorf("%s workers=%d: counters diverged\n got %+v\nwant %+v",
					cfg.Name, workers, got.ctrs, ref.ctrs)
			}
			if !reflect.DeepEqual(got.events, ref.events) {
				t.Errorf("%s workers=%d: trace events diverged (%d vs %d events)",
					cfg.Name, workers, len(got.events), len(ref.events))
			}
			if !reflect.DeepEqual(got.samples, ref.samples) {
				t.Errorf("%s workers=%d: epoch samples diverged (%d vs %d)",
					cfg.Name, workers, len(got.samples), len(ref.samples))
			}
		}
	}
}

// TestShardedWorkerInvarianceHybridNoC repeats the invariance check on a
// configuration whose NoC has butterfly stages — the network model with
// internal switch-port state, which only the coordinator may touch.
func TestShardedWorkerInvarianceHybridNoC(t *testing.T) {
	cfg, err := config.OneTwentyEightKx4().Scaled(256) // hybrid MoT+butterfly
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ButterflyLevels == 0 {
		t.Fatalf("config %s lost its butterfly levels", cfg.Name)
	}
	ref := runShardedSuite(t, cfg, 1)
	got := runShardedSuite(t, cfg, 4)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("hybrid-NoC run diverged between workers=1 and workers=4")
	}
}

// opOracle walks every thread's op stream straight from the Program and
// sums what the machine must count: FLOP and ALU ops, loads, stores and
// PS ops, threads and the one spawn. It shares no code with the engine,
// so the comparison below holds whatever the event order.
func opOracle(threads int, prog Program) stats.Counters {
	c := stats.Counters{Threads: uint64(threads), Spawns: 1}
	var buf []Op
	for id := 0; id < threads; id++ {
		buf = prog.Thread(id, buf[:0])
		for _, op := range buf {
			switch op.Kind {
			case OpFLOP:
				c.FPOps += uint64(op.N)
			case OpALU:
				c.ALUOps += uint64(op.N)
			case OpLoad:
				c.Loads++
			case OpStore:
				c.Stores++
			case OpPS:
				c.PSOps++
			}
		}
	}
	return c
}

// TestOpCountsMatchProgramOracle checks every workload's section
// counters exactly against the op-stream oracle. PSOps adds one
// allocation prefix-sum per thread beyond the first wave; the NoC
// carries one request per load or store plus one reply per load; every
// access is a cache hit or a miss; and each FLOP and each LSU issue
// books exactly one port slot.
func TestOpCountsMatchProgramOracle(t *testing.T) {
	cfg, err := config.FourK().Scaled(256)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		m, err := NewParallel(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range diffWorkloads(cfg.TCUs) {
			m.EnablePrefetch(w.prefetch)
			before := m.Snapshot()
			r, err := m.Spawn(w.threads, w.prog)
			if err != nil {
				t.Fatal(err)
			}
			after := m.Snapshot()
			want := opOracle(w.threads, w.prog)
			if w.threads > cfg.TCUs {
				want.PSOps += uint64(w.threads - cfg.TCUs)
			}
			got := r.Ops
			if got.FPOps != want.FPOps || got.ALUOps != want.ALUOps ||
				got.Loads != want.Loads || got.Stores != want.Stores ||
				got.PSOps != want.PSOps || got.Threads != want.Threads ||
				got.Spawns != want.Spawns {
				t.Errorf("workers=%d %s: op counts diverged from the op-stream oracle\n got %+v\nwant %+v",
					workers, w.name, got, want)
			}
			if pkts := 2*want.Loads + want.Stores; got.NoCPackets != pkts {
				t.Errorf("workers=%d %s: NoC packets = %d, want 2*Loads+Stores = %d",
					workers, w.name, got.NoCPackets, pkts)
			}
			if acc := want.Loads + want.Stores; got.CacheHits+got.CacheMisses != acc {
				t.Errorf("workers=%d %s: cache hits+misses = %d, want %d accesses",
					workers, w.name, got.CacheHits+got.CacheMisses, acc)
			}
			if fpu := after.FPUBusy - before.FPUBusy; fpu != want.FPOps {
				t.Errorf("workers=%d %s: FPU slots %d, want FPOps %d", workers, w.name, fpu, want.FPOps)
			}
			if lsu := after.LSUBusy - before.LSUBusy; lsu != want.Loads+want.Stores {
				t.Errorf("workers=%d %s: LSU slots %d, want Loads+Stores %d",
					workers, w.name, lsu, want.Loads+want.Stores)
			}
			m.AdvanceSerial(50)
		}
	}
}

func TestShardedExtendSpawnRejected(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Bool
	_, err = m.Spawn(4, ProgramFunc(func(id int, buf []Op) []Op {
		if id == 0 && !ran.Swap(true) {
			if _, err := m.ExtendSpawn(2); err == nil {
				t.Error("ExtendSpawn succeeded with 4 simulation workers")
			}
		}
		return append(buf, ALU(1))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("workload thread 0 never ran")
	}
}

func TestShardedSpawnSequenceAndSerialGaps(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewParallel(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := m.Spawn(cfg.TCUs, ProgramFunc(func(id int, buf []Op) []Op {
		return append(buf, FLOP(4))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Start != 0 || r1.End <= r1.Start {
		t.Fatalf("first spawn [%d, %d]", r1.Start, r1.End)
	}
	m.AdvanceSerial(500)
	if m.Now() != r1.End+500 {
		t.Fatalf("Now() = %d after serial gap, want %d", m.Now(), r1.End+500)
	}
	r2, err := m.Spawn(cfg.TCUs, ProgramFunc(func(id int, buf []Op) []Op {
		return append(buf, FLOP(4))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Start != r1.End+500 {
		t.Fatalf("second spawn starts at %d, want %d", r2.Start, r1.End+500)
	}
	if r2.Cycles() != r1.Cycles() {
		t.Fatalf("identical spawns took %d and %d cycles", r1.Cycles(), r2.Cycles())
	}
}
