package xmt

import (
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/stats"
	"xmtfft/internal/trace"
)

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

// shardedRun is everything comparable about one run of the suite:
// per-spawn results, final counters, and the trace stream.
type shardedRun struct {
	results []SpawnResult
	ctrs    interface{}
	events  []trace.Event
	samples []trace.Sample
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
	m, err := New(cfg)
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
			t.Errorf("%s: op counts diverged from the op-stream oracle\n got %+v\nwant %+v",
				w.name, got, want)
		}
		if pkts := 2*want.Loads + want.Stores; got.NoCPackets != pkts {
			t.Errorf("%s: NoC packets = %d, want 2*Loads+Stores = %d", w.name, got.NoCPackets, pkts)
		}
		if acc := want.Loads + want.Stores; got.CacheHits+got.CacheMisses != acc {
			t.Errorf("%s: cache hits+misses = %d, want %d accesses",
				w.name, got.CacheHits+got.CacheMisses, acc)
		}
		if fpu := after.FPUBusy - before.FPUBusy; fpu != want.FPOps {
			t.Errorf("%s: FPU slots %d, want FPOps %d", w.name, fpu, want.FPOps)
		}
		if lsu := after.LSUBusy - before.LSUBusy; lsu != want.Loads+want.Stores {
			t.Errorf("%s: LSU slots %d, want Loads+Stores %d", w.name, lsu, want.Loads+want.Stores)
		}
		m.AdvanceSerial(50)
	}
}

func TestShardedSpawnSequenceAndSerialGaps(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
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
