package xmt

import (
	"testing"
	"testing/quick"

	"xmtfft/internal/config"
)

func tiny(t *testing.T) *Machine {
	t.Helper()
	cfg, err := config.FourK().Scaled(64) // 2 clusters, 2 MMs
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSpawnZeroThreads(t *testing.T) {
	m := tiny(t)
	r, err := m.Spawn(0, ProgramFunc(func(id int, buf []Op) []Op { return buf }))
	if err != nil {
		t.Fatal(err)
	}
	if r.Threads != 0 || r.Ops.Threads != 0 {
		t.Fatalf("result = %+v", r)
	}
	if r.Cycles() < SpawnBroadcastLatency+JoinLatency {
		t.Fatalf("empty spawn took %d cycles, below broadcast+join floor", r.Cycles())
	}
}

func TestSpawnRunsEveryThreadExactlyOnce(t *testing.T) {
	m := tiny(t)
	const n = 1000 // far more threads than the 64 TCUs
	seen := make([]int, n)
	_, err := m.Spawn(n, ProgramFunc(func(id int, buf []Op) []Op {
		seen[id]++
		return append(buf, ALU(3))
	}))
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("thread %d ran %d times", id, c)
		}
	}
	if m.Counters.Threads != n {
		t.Fatalf("thread counter = %d, want %d", m.Counters.Threads, n)
	}
	// Dynamic allocation beyond the first wave uses the PS unit.
	if m.Counters.PSOps < n-64 {
		t.Fatalf("ps ops = %d, want >= %d", m.Counters.PSOps, n-64)
	}
}

func TestSpawnWhileActiveFails(t *testing.T) {
	m := tiny(t)
	var nestedErr error
	_, err := m.Spawn(1, ProgramFunc(func(id int, buf []Op) []Op {
		_, nestedErr = m.Spawn(1, ProgramFunc(func(int, []Op) []Op { return nil }))
		return buf
	}))
	if err != nil {
		t.Fatal(err)
	}
	if nestedErr == nil {
		t.Fatal("nested spawn succeeded; want error")
	}
	// Machine remains usable afterwards.
	if _, err := m.Spawn(2, ProgramFunc(func(id int, buf []Op) []Op { return append(buf, ALU(1)) })); err != nil {
		t.Fatalf("machine unusable after nested-spawn error: %v", err)
	}
}

func TestNegativeSpawn(t *testing.T) {
	m := tiny(t)
	if _, err := m.Spawn(-1, nil); err == nil {
		t.Fatal("negative spawn accepted")
	}
}

func TestALUOpsPureLatency(t *testing.T) {
	m := tiny(t)
	// One thread doing k ALU ops takes about k cycles plus overheads.
	const k = 500
	r, err := m.Spawn(1, ProgramFunc(func(id int, buf []Op) []Op {
		return append(buf, ALU(k))
	}))
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(SpawnBroadcastLatency + ThreadStartOverhead + JoinLatency)
	if got := r.Cycles(); got < base+k || got > base+k+8 {
		t.Fatalf("cycles = %d, want about %d", got, base+k)
	}
	if r.Ops.ALUOps != k {
		t.Fatalf("alu ops = %d", r.Ops.ALUOps)
	}
}

func TestFPUContentionWithinCluster(t *testing.T) {
	// 32 threads (one cluster's worth) each doing 64 FLOPs must
	// serialize through the single FPU: ~2048 cycles, not ~64.
	m := tiny(t)
	r, err := m.Spawn(32, ProgramFunc(func(id int, buf []Op) []Op {
		return append(buf, FLOP(64))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles() < 32*64 {
		t.Fatalf("32x64 FLOPs on one FPU took %d cycles, want >= 2048", r.Cycles())
	}
	if r.Ops.FPOps != 32*64 {
		t.Fatalf("fp ops = %d", r.Ops.FPOps)
	}
}

func TestFPUScalingAcrossClusters(t *testing.T) {
	// The same total FLOPs spread across 2 clusters should be roughly
	// twice as fast as on 1 cluster (threads 0-31 are cluster 0,
	// 32-63 cluster 1).
	run := func(threads int) uint64 {
		m := tiny(t)
		r, err := m.Spawn(threads, ProgramFunc(func(id int, buf []Op) []Op {
			per := 2048 / threads
			return append(buf, FLOP(per))
		}))
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles()
	}
	one := run(32)     // 2048 FLOPs on cluster 0 only
	two := run(64)     // 2048 FLOPs across both clusters
	if two*3 > one*2 { // expect near 2x; require at least 1.5x
		t.Fatalf("2 clusters (%d cycles) not meaningfully faster than 1 (%d cycles)", two, one)
	}
}

func TestMorePFUsSpeedUpFlops(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := cfg
	cfg4.FPUsPerCluster = 4
	run := func(c config.Config) uint64 {
		m, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Spawn(32, ProgramFunc(func(id int, buf []Op) []Op {
			return append(buf, FLOP(128))
		}))
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles()
	}
	t1, t4 := run(cfg), run(cfg4)
	if t4*2 > t1 {
		t.Fatalf("4 FPUs (%d cycles) not >=2x faster than 1 FPU (%d cycles)", t4, t1)
	}
}

func TestLoadGroupOverlapsLatency(t *testing.T) {
	// A group of 8 loads should complete far faster than 8 dependent
	// loads (separated by ALU ops so they form separate groups).
	mGroup := tiny(t)
	rGroup, err := mGroup.Spawn(1, ProgramFunc(func(id int, buf []Op) []Op {
		for k := 0; k < 8; k++ {
			buf = append(buf, Load(uint64(k*4096)))
		}
		return buf
	}))
	if err != nil {
		t.Fatal(err)
	}
	mDep := tiny(t)
	rDep, err := mDep.Spawn(1, ProgramFunc(func(id int, buf []Op) []Op {
		for k := 0; k < 8; k++ {
			buf = append(buf, Load(uint64(k*4096)), ALU(1))
		}
		return buf
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rGroup.Cycles()*3 > rDep.Cycles()*2 {
		t.Fatalf("grouped loads (%d cycles) not much faster than dependent loads (%d cycles)",
			rGroup.Cycles(), rDep.Cycles())
	}
	if rGroup.Ops.Loads != 8 || rDep.Ops.Loads != 8 {
		t.Fatalf("load counts: group=%d dep=%d", rGroup.Ops.Loads, rDep.Ops.Loads)
	}
}

func TestStoresDoNotBlockButJoinWaits(t *testing.T) {
	m := tiny(t)
	r, err := m.Spawn(1, ProgramFunc(func(id int, buf []Op) []Op {
		return append(buf, Store(0x100), ALU(1))
	}))
	if err != nil {
		t.Fatal(err)
	}
	// The store misses (cold cache): join must wait for DRAM, so the
	// section lasts at least the DRAM latency.
	if r.Cycles() < 100 {
		t.Fatalf("join did not wait for outstanding store: %d cycles", r.Cycles())
	}
	if r.Ops.Stores != 1 {
		t.Fatalf("stores = %d", r.Ops.Stores)
	}
}

func TestCacheCountersPropagate(t *testing.T) {
	m := tiny(t)
	r, err := m.Spawn(1, ProgramFunc(func(id int, buf []Op) []Op {
		return append(buf, Load(0x40), ALU(1), Load(0x44)) // second hits same line
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops.CacheMisses != 1 || r.Ops.CacheHits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", r.Ops.CacheHits, r.Ops.CacheMisses)
	}
	if r.Ops.DRAMBytes != config.CacheLineBytes {
		t.Fatalf("dram bytes = %d, want one line", r.Ops.DRAMBytes)
	}
}

func TestPSOpLatency(t *testing.T) {
	m := tiny(t)
	r, err := m.Spawn(1, ProgramFunc(func(id int, buf []Op) []Op {
		return append(buf, PS(), PS())
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops.PSOps != 2 {
		t.Fatalf("ps ops = %d, want 2", r.Ops.PSOps)
	}
	base := uint64(SpawnBroadcastLatency + ThreadStartOverhead + JoinLatency)
	if r.Cycles() < base+2*PSLatency {
		t.Fatalf("cycles = %d, want >= %d", r.Cycles(), base+2*PSLatency)
	}
}

func TestSpawnResultCountersAreSectionLocal(t *testing.T) {
	m := tiny(t)
	p := ProgramFunc(func(id int, buf []Op) []Op { return append(buf, FLOP(10)) })
	r1, err := m.Spawn(4, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Spawn(4, p)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ops.FPOps != 40 || r2.Ops.FPOps != 40 {
		t.Fatalf("per-section flops: %d, %d; want 40 each", r1.Ops.FPOps, r2.Ops.FPOps)
	}
	if m.Counters.FPOps != 80 {
		t.Fatalf("machine total flops = %d, want 80", m.Counters.FPOps)
	}
	if r2.Start < r1.End {
		t.Fatalf("sections overlap: %d < %d", r2.Start, r1.End)
	}
}

func TestDeterministicCycles(t *testing.T) {
	run := func() uint64 {
		m := tiny(t)
		r, err := m.Spawn(128, ProgramFunc(func(id int, buf []Op) []Op {
			return append(buf,
				Load(uint64(id*32)), Load(uint64(id*32+2048)),
				FLOP(20), ALU(4),
				Store(uint64(id*32)), Store(uint64(id*32+2048)))
		}))
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic cycle counts: %d vs %d", a, b)
	}
}

func TestBandwidthBoundStreamingSpawn(t *testing.T) {
	// A streaming workload (every thread loads 8 distinct lines) should
	// push DRAM utilization high on a machine with few channels.
	cfg, err := config.FourK().Scaled(256) // 8 clusters, 8 MMs, 1 channel
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2048
	_, err = m.Spawn(n, ProgramFunc(func(id int, buf []Op) []Op {
		base := uint64(id) * 8 * config.CacheLineBytes
		for k := 0; k < 8; k++ {
			buf = append(buf, Load(base+uint64(k)*config.CacheLineBytes))
		}
		return append(buf, FLOP(8))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if u := m.DRAMUtilization(); u < 0.5 {
		t.Fatalf("streaming workload reached only %.0f%% DRAM utilization", u*100)
	}
}

func TestAdvanceSerial(t *testing.T) {
	m := tiny(t)
	m.AdvanceSerial(100)
	if m.Now() != 100 {
		t.Fatalf("now = %d, want 100", m.Now())
	}
}

func TestExtendSpawn(t *testing.T) {
	m := tiny(t)
	// Thread 0 extends the section by 3; all extended ids must run.
	ran := make(map[int]int)
	var extendErr error
	var first int
	_, err := m.Spawn(1, ProgramFunc(func(id int, buf []Op) []Op {
		ran[id]++
		if id == 0 {
			first, extendErr = m.ExtendSpawn(3)
		}
		return append(buf, ALU(2))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if extendErr != nil {
		t.Fatal(extendErr)
	}
	if first != 1 {
		t.Fatalf("first extended id = %d, want 1", first)
	}
	if len(ran) != 4 {
		t.Fatalf("ran %d threads, want 4: %v", len(ran), ran)
	}
	for id, c := range ran {
		if c != 1 {
			t.Fatalf("thread %d ran %d times", id, c)
		}
	}
	if m.Counters.Threads != 4 {
		t.Fatalf("thread counter = %d", m.Counters.Threads)
	}
	// One prefix-sum for the extension, one per re-allocated thread id.
	if m.Counters.PSOps != 4 {
		t.Fatalf("prefix-sum counter = %d, want 4", m.Counters.PSOps)
	}
}

func TestExtendSpawnChain(t *testing.T) {
	// Each thread extends by one until 50 threads have run: the
	// single-spawn chaining pattern.
	m := tiny(t)
	count := 0
	_, err := m.Spawn(1, ProgramFunc(func(id int, buf []Op) []Op {
		count++
		if id < 49 {
			if _, err := m.ExtendSpawn(1); err != nil {
				t.Error(err)
			}
		}
		return append(buf, ALU(1))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("chain ran %d threads, want 50", count)
	}
}

func TestExtendSpawnErrors(t *testing.T) {
	m := tiny(t)
	if _, err := m.ExtendSpawn(1); err == nil {
		t.Error("ExtendSpawn outside a section accepted")
	}
	_, err := m.Spawn(1, ProgramFunc(func(id int, buf []Op) []Op {
		if _, err := m.ExtendSpawn(0); err == nil {
			t.Error("ExtendSpawn(0) accepted")
		}
		return buf
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotUtilization(t *testing.T) {
	m := tiny(t)
	before := m.Snapshot()
	// FLOP-heavy workload on one cluster: FPU utilization should exceed
	// LSU utilization.
	_, err := m.Spawn(32, ProgramFunc(func(id int, buf []Op) []Op {
		return append(buf, FLOP(256), Load(uint64(id*64)))
	}))
	if err != nil {
		t.Fatal(err)
	}
	u := m.UtilizationSince(before)
	if u.Cycles == 0 {
		t.Fatal("no cycles elapsed")
	}
	if u.FPU <= 0 || u.FPU > 1 || u.LSU < 0 || u.LSU > 1 || u.DRAM < 0 || u.DRAM > 1 {
		t.Fatalf("utilization out of range: %+v", u)
	}
	if u.FPU <= u.LSU {
		t.Errorf("FLOP-heavy run: FPU %.3f not above LSU %.3f", u.FPU, u.LSU)
	}
	// Interval with no activity reports zeros.
	s := m.Snapshot()
	if got := m.UtilizationSince(s); got != (Utilization{}) {
		t.Errorf("idle utilization = %+v", got)
	}
}

func TestSnapshotCumulative(t *testing.T) {
	m := tiny(t)
	p := ProgramFunc(func(id int, buf []Op) []Op { return append(buf, FLOP(10)) })
	m.Spawn(8, p)
	s1 := m.Snapshot()
	m.Spawn(8, p)
	s2 := m.Snapshot()
	if s2.FPUBusy-s1.FPUBusy != 80 {
		t.Errorf("FPU busy delta = %d, want 80", s2.FPUBusy-s1.FPUBusy)
	}
	if s2.Cycle <= s1.Cycle {
		t.Error("cycle did not advance")
	}
}

// Property (testing/quick): for a fixed per-thread workload, section
// cycles never decrease when the thread count grows.
func TestCyclesMonotoneInThreadsProperty(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	prog := ProgramFunc(func(id int, buf []Op) []Op {
		return append(buf, Load(uint64(id*32)), FLOP(8), Store(uint64(id*32)))
	})
	cyclesFor := func(n int) uint64 {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Spawn(n, prog)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles()
	}
	f := func(a, b uint8) bool {
		small, large := int(a)%200, int(b)%200
		if small > large {
			small, large = large, small
		}
		return cyclesFor(small) <= cyclesFor(large)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
