package xmt

import (
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/noc"
	"xmtfft/internal/trace"
)

// mixed is a small workload exercising every op kind with real shared
// addresses, so loads, stores, NoC and DRAM traffic all occur.
func mixed(id int, buf []Op) []Op {
	base := uint64(id) * 64
	return append(buf,
		Load(base), Load(base+4),
		ALU(2),
		FLOP(6),
		PS(),
		Store(base), Store(base+4),
	)
}

func TestNoCPacketAccountingSingleSource(t *testing.T) {
	m := tiny(t)
	for round := 0; round < 3; round++ {
		res, err := m.Spawn(200, ProgramFunc(mixed))
		if err != nil {
			t.Fatal(err)
		}
		// The network is the single source of truth; the machine counter
		// must be a pure snapshot of it after every section.
		if m.Counters.NoCPackets != m.Network().Packets() {
			t.Fatalf("round %d: machine counter %d diverged from network %d",
				round, m.Counters.NoCPackets, m.Network().Packets())
		}
		// Loads cost a request plus a reply packet; stores only a request.
		want := 2*res.Ops.Loads + res.Ops.Stores
		if res.Ops.NoCPackets != want {
			t.Fatalf("round %d: section packets = %d, want %d (loads=%d stores=%d)",
				round, res.Ops.NoCPackets, want, res.Ops.Loads, res.Ops.Stores)
		}
	}
}

func TestMemCountersSurfaceInSpawnResult(t *testing.T) {
	m := tiny(t)
	m.EnablePrefetch(true)
	res, err := m.Spawn(200, ProgramFunc(mixed))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops.Prefetches != m.Memory().Prefetches() {
		t.Fatalf("prefetches %d != memory system %d", res.Ops.Prefetches, m.Memory().Prefetches())
	}
	if res.Ops.Prefetches == 0 {
		t.Fatal("streaming workload with prefetch enabled recorded no prefetches")
	}
	rh, rm := m.Memory().RowBufferStats()
	if res.Ops.RowHits != rh || res.Ops.RowMisses != rm {
		t.Fatalf("row buffer (%d,%d) != memory system (%d,%d)",
			res.Ops.RowHits, res.Ops.RowMisses, rh, rm)
	}
	if res.Ops.RowHits+res.Ops.RowMisses == 0 {
		t.Fatal("DRAM traffic recorded no row-buffer outcomes")
	}
}

// The zero-overhead contract's semantic half: attaching a recorder must
// not change a single simulated cycle or counter.
func TestTracingDoesNotPerturbTiming(t *testing.T) {
	plain := tiny(t)
	traced := tiny(t)
	traced.AttachRecorder(trace.NewRecorder(64))

	for round := 0; round < 2; round++ {
		a, err := plain.Spawn(300, ProgramFunc(mixed))
		if err != nil {
			t.Fatal(err)
		}
		traced.Section("round")
		b, err := traced.Spawn(300, ProgramFunc(mixed))
		if err != nil {
			t.Fatal(err)
		}
		if a.Start != b.Start || a.End != b.End {
			t.Fatalf("round %d: timing diverged: plain %d..%d, traced %d..%d",
				round, a.Start, a.End, b.Start, b.End)
		}
		if a.Ops != b.Ops {
			t.Fatalf("round %d: counters diverged:\nplain  %+v\ntraced %+v", round, a.Ops, b.Ops)
		}
	}
	if plain.Now() != traced.Now() {
		t.Fatalf("final cycle diverged: %d vs %d", plain.Now(), traced.Now())
	}
}

func TestRecorderCapturesRunStructure(t *testing.T) {
	m := tiny(t)
	rec := trace.NewRecorder(32)
	rec.Label = "test"
	m.AttachRecorder(rec)
	if m.Recorder() != rec {
		t.Fatal("Recorder() does not return the attached recorder")
	}

	const n = 100
	m.Section("phase-a")
	res, err := m.Spawn(n, ProgramFunc(mixed))
	if err != nil {
		t.Fatal(err)
	}

	counts := map[trace.EventKind]int{}
	var spawnLabel string
	for _, ev := range rec.Events {
		counts[ev.Kind]++
		if ev.Kind == trace.EvSpawn {
			spawnLabel = ev.Label
		}
	}
	if counts[trace.EvSpawn] != 1 || counts[trace.EvJoin] != 1 {
		t.Fatalf("spawn/join events = %d/%d, want 1/1", counts[trace.EvSpawn], counts[trace.EvJoin])
	}
	if spawnLabel != "phase-a" {
		t.Fatalf("spawn label = %q, want %q (Section must tag the next spawn)", spawnLabel, "phase-a")
	}
	if counts[trace.EvThreadStart] != n || counts[trace.EvThreadRetire] != n {
		t.Fatalf("thread events = %d starts / %d retires, want %d each",
			counts[trace.EvThreadStart], counts[trace.EvThreadRetire], n)
	}
	if got, want := counts[trace.EvMemAccess], int(res.Ops.Loads+res.Ops.Stores); got != want {
		t.Fatalf("mem events = %d, want %d", got, want)
	}
	if got, want := counts[trace.EvNoC], int(res.Ops.Loads+res.Ops.Stores); got != want {
		t.Fatalf("noc events = %d, want %d (one per request packet)", got, want)
	}
	if counts[trace.EvSegment] == 0 {
		t.Fatal("no segment events recorded")
	}
	if len(rec.Samples) == 0 {
		t.Fatal("epoch sampler recorded no samples")
	}
	last := rec.Samples[len(rec.Samples)-1]
	if last.Cycle > res.End {
		t.Fatalf("sample beyond run end: %d > %d", last.Cycle, res.End)
	}
	for _, s := range rec.Samples {
		if s.FPU < 0 || s.FPU > 1 || s.LSU < 0 || s.LSU > 1 || s.DRAM < 0 || s.DRAM > 1 {
			t.Fatalf("utilization sample out of [0,1]: %+v", s)
		}
		if s.HitRate < 0 || s.HitRate > 1 {
			t.Fatalf("hit rate out of range: %+v", s)
		}
	}

	// Detaching stops recording entirely.
	m.AttachRecorder(nil)
	events := len(rec.Events)
	if _, err := m.Spawn(10, ProgramFunc(mixed)); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != events {
		t.Fatal("recorder still receiving events after detach")
	}
}

func TestSpawnResultUtil(t *testing.T) {
	m := tiny(t)
	// FLOP-heavy: every thread issues long dependent FLOP runs, so FPU
	// utilization should clearly dominate DRAM.
	res, err := m.Spawn(256, ProgramFunc(func(id int, buf []Op) []Op {
		return append(buf, FLOP(64))
	}))
	if err != nil {
		t.Fatal(err)
	}
	u := res.Util
	if u.FPU <= 0 || u.FPU > 1 {
		t.Fatalf("FPU util = %g, want in (0,1]", u.FPU)
	}
	if u.DRAM != 0 {
		t.Fatalf("DRAM util = %g for a memory-free workload", u.DRAM)
	}
	if u.FPU < 0.2 {
		t.Fatalf("FPU util = %g, implausibly low for a FLOP-bound section", u.FPU)
	}
}

// TestTracedNoCDelaysSumToBlocked holds the traced NoC arrivals on the
// hybrid network to the switch-level accounting: every request packet
// is one NoC event, and its delay past the uncontended latency is time
// spent blocked at butterfly switches, so the delays sum to the
// network's Blocked. Each thread moves whole cache lines, so most
// words follow a word of their own line: a traced spawn sends each of
// them on its own, and its Blocked and cycles must equal those of the
// same spawn untraced, whose same-line runs take the closed forms.
func TestTracedNoCDelaysSumToBlocked(t *testing.T) {
	cfg, err := config.SixtyFourK().Scaled(1024) // 32 ports, 2 butterfly levels
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := m.Network().(*noc.Hybrid)
	if !ok {
		t.Fatalf("64k network is %T, want *noc.Hybrid", m.Network())
	}
	rec := trace.NewRecorder(0)
	m.AttachRecorder(rec)
	lines := func(id int, buf []Op) []Op {
		src := uint64(id%64) * config.CacheLineBytes // few lines: hot modules
		dst := (1 << 20) + uint64(id)*config.CacheLineBytes
		for w := uint64(0); w < config.CacheLineBytes; w += 4 {
			buf = append(buf, Load(src+w))
		}
		buf = append(buf, FLOP(8))
		for w := uint64(0); w < config.CacheLineBytes; w += 4 {
			buf = append(buf, Store(dst+w))
		}
		return buf
	}
	res, err := m.Spawn(2048, ProgramFunc(lines))
	if err != nil {
		t.Fatal(err)
	}
	var packets, delay uint64
	for _, ev := range rec.Events {
		if ev.Kind != trace.EvNoC {
			continue
		}
		packets++
		if ev.End < ev.Start+h.Latency() {
			t.Fatalf("NoC event %+v arrives before the uncontended latency %d", ev, h.Latency())
		}
		delay += ev.End - ev.Start - h.Latency()
	}
	if want := res.Ops.Loads + res.Ops.Stores; packets != want {
		t.Fatalf("traced %d NoC events, want one per request: %d", packets, want)
	}
	if h.Blocked == 0 || delay != h.Blocked {
		t.Fatalf("traced NoC delays sum to %d, network blocked %d cycles (want equal, non-zero)", delay, h.Blocked)
	}
	untraced, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ures, err := untraced.Spawn(2048, ProgramFunc(lines))
	if err != nil {
		t.Fatal(err)
	}
	if b := untraced.Network().(*noc.Hybrid).Blocked; b != h.Blocked || ures.Cycles() != res.Cycles() {
		t.Fatalf("untraced spawn: %d blocked cycles and %d cycles, traced %d and %d", b, ures.Cycles(), h.Blocked, res.Cycles())
	}
}
