package mem

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"xmtfft/internal/config"
)

func smallCfg(t *testing.T) config.Config {
	t.Helper()
	c, err := config.FourK().Scaled(256) // 8 clusters, 8 MMs, 1 channel
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// access performs one word access through Access, hashing the address
// to its module as the machine's coordinator does.
func access(s *System, t, addr uint64, write bool) AccessResult {
	return s.Access(t, HashAddress(addr, s.Modules()), addr, write)
}

func TestHashAddressRange(t *testing.T) {
	f := func(addr uint64, mods uint8) bool {
		m := int(mods%64) + 1
		h := HashAddress(addr, m)
		return h >= 0 && h < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestHashAddressMaskEqualsModulo holds the mask to the hash's
// definition, (line·φ >> 32) mod modules, at every power-of-two module
// count from 1 to 4096.
func TestHashAddressMaskEqualsModulo(t *testing.T) {
	f := func(addr uint64, shift uint8) bool {
		m := 1 << (shift % 13)
		want := int((addr / config.CacheLineBytes * 0x9E3779B97F4A7C15 >> 32) % uint64(m))
		return HashAddress(addr, m) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHashAddressLineGranularity(t *testing.T) {
	// All words in one cache line must map to the same module.
	base := uint64(0x12340)
	want := HashAddress(base-base%config.CacheLineBytes, 16)
	for off := uint64(0); off < config.CacheLineBytes; off += 4 {
		if got := HashAddress(base-base%config.CacheLineBytes+off, 16); got != want {
			t.Fatalf("offset %d maps to module %d, want %d", off, got, want)
		}
	}
}

func TestHashSpreadsUnitStride(t *testing.T) {
	const mods = 16
	counts := make([]int, mods)
	for addr := uint64(0); addr < 1<<16; addr += config.CacheLineBytes {
		counts[HashAddress(addr, mods)]++
	}
	total := 1 << 16 / config.CacheLineBytes
	for i, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.02 || frac > 0.15 { // ideal 1/16 = 0.0625
			t.Errorf("module %d got fraction %.3f of unit-stride lines", i, frac)
		}
	}
}

func TestHashSpreadsPowerOfTwoStride(t *testing.T) {
	// Large power-of-two strides (FFT rotation writes) must not all land
	// on one module -- the reason XMT hashes addresses.
	const mods = 16
	counts := make([]int, mods)
	const stride = 1 << 14
	for i := uint64(0); i < 1024; i++ {
		counts[HashAddress(i*stride, mods)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max > 300 { // ideal 64; fail only on gross imbalance
		t.Errorf("stride-%d accesses concentrate on one module: max %d of 1024", stride, max)
	}
}

func TestAccessHitMiss(t *testing.T) {
	s, err := NewSystem(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	r1 := access(s, 0, 0x1000, false)
	if r1.Hit {
		t.Fatal("cold access hit")
	}
	if r1.Done < DRAMAccessLatency {
		t.Fatalf("miss completed at %d, faster than DRAM latency", r1.Done)
	}
	r2 := access(s, r1.Done, 0x1004, false) // same line
	if !r2.Hit {
		t.Fatal("same-line access missed")
	}
	if got := r2.Done - r1.Done; got != CacheHitLatency {
		t.Fatalf("hit latency = %d, want %d", got, CacheHitLatency)
	}
	if s.Hits() != 1 || s.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", s.Hits(), s.Misses())
	}
}

func TestSameModuleQueueing(t *testing.T) {
	s, err := NewSystem(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	// Warm one line, then hammer it concurrently: completions serialize
	// one per cycle through the module port (the twiddle-table bottleneck
	// from §IV-A).
	warm := access(s, 0, 0x2000, false)
	t0 := warm.Done
	var last uint64
	for i := 0; i < 8; i++ {
		r := access(s, t0, 0x2000, false)
		if !r.Hit {
			t.Fatalf("access %d missed", i)
		}
		if r.Done <= last {
			t.Fatalf("access %d completed at %d, not after previous %d", i, r.Done, last)
		}
		last = r.Done
	}
	if got := last - t0; got < 7+CacheHitLatency {
		t.Fatalf("8 queued accesses finished in %d cycles; want serialization", got)
	}
	if s.QueueDelay() == 0 {
		t.Fatal("queue delay not recorded")
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	s, err := NewSystem(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	r := access(s, 0, 0x3000, true)
	if r.Hit {
		t.Fatal("cold write hit")
	}
	base := s.DRAMBytes()
	if base != config.CacheLineBytes {
		t.Fatalf("write-allocate fetched %d bytes, want one line", base)
	}
	n := s.Flush()
	if n != 1 {
		t.Fatalf("flush wrote back %d lines, want 1", n)
	}
	if s.DRAMBytes() != base+config.CacheLineBytes {
		t.Fatalf("flush DRAM bytes = %d, want %d", s.DRAMBytes(), base+config.CacheLineBytes)
	}
	if s.Flush() != 0 {
		t.Fatal("second flush found dirty lines")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	s, err := NewSystem(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	// Fill one set's 4 ways with dirty lines, then force an eviction by a
	// 5th distinct tag mapping to the same set. With 256 sets, addresses
	// that differ by setCount*lineBytes in the tag-index bits collide.
	const sets = config.CacheBytesPerModule / config.CacheLineBytes / 4
	var target uint64
	mod := HashAddress(0, s.cfg.MemModules)
	// Find 5 addresses in the same module and same set.
	var sameSet []uint64
	for a := uint64(0); len(sameSet) < 5; a += sets * config.CacheLineBytes {
		if HashAddress(a, s.cfg.MemModules) == mod {
			sameSet = append(sameSet, a)
		}
	}
	_ = target
	t64 := uint64(0)
	for _, a := range sameSet {
		r := access(s, t64, a, true)
		t64 = r.Done
	}
	if s.Writebacks() == 0 {
		t.Fatal("filling 5 dirty lines into a 4-way set produced no writeback")
	}
}

func TestStreamingVsStridedTraffic(t *testing.T) {
	cfg := smallCfg(t)
	words := 4096

	// Streaming: consecutive words; one miss per 8 words (32 B line).
	stream, _ := NewSystem(cfg)
	t64 := uint64(0)
	for i := 0; i < words; i++ {
		r := access(stream, t64, uint64(i*4), false)
		t64 = r.Done
	}
	// Strided: one word per line; every access misses.
	strided, _ := NewSystem(cfg)
	t64 = 0
	for i := 0; i < words; i++ {
		r := access(strided, t64, uint64(i*config.CacheLineBytes*7), false)
		t64 = r.Done
	}
	if strided.DRAMBytes() < 6*stream.DRAMBytes() {
		t.Errorf("strided traffic %d not >> streaming traffic %d", strided.DRAMBytes(), stream.DRAMBytes())
	}
}

func TestChannelSharingSlowsMisses(t *testing.T) {
	// Same module count, fewer channels => streaming misses take longer.
	base := config.FourK()
	shared, err := base.Scaled(512) // 16 MMs, MMsPerDRAMCtrl=8 -> 2 channels
	if err != nil {
		t.Fatal(err)
	}
	private := shared
	private.MMsPerDRAMCtrl = 1 // 16 channels
	run := func(c config.Config) uint64 {
		s, err := NewSystem(c)
		if err != nil {
			t.Fatal(err)
		}
		var done uint64
		// Issue many independent misses at cycle 0 across all modules.
		for i := 0; i < 2048; i++ {
			r := access(s, 0, uint64(i*config.CacheLineBytes), false)
			if r.Done > done {
				done = r.Done
			}
		}
		return done
	}
	tShared, tPrivate := run(shared), run(private)
	if tPrivate*2 > tShared {
		t.Errorf("private channels (%d cycles) not much faster than shared (%d cycles)", tPrivate, tShared)
	}
}

func TestInvalidate(t *testing.T) {
	s, _ := NewSystem(smallCfg(t))
	access(s, 0, 0x100, true)
	s.Invalidate()
	if s.Flush() != 0 {
		t.Fatal("invalidate left dirty lines")
	}
	r := access(s, 0, 0x100, false)
	if r.Hit {
		t.Fatal("access after invalidate hit")
	}
}

func TestModuleLoadBalance(t *testing.T) {
	s, _ := NewSystem(smallCfg(t))
	for i := 0; i < 1<<14; i++ {
		access(s, 0, uint64(i*4), false)
	}
	loads := s.ModuleLoad()
	var min, max uint64 = ^uint64(0), 0
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if min == 0 || max > min*4 {
		t.Errorf("module load imbalance: min=%d max=%d", min, max)
	}
}

func TestNewSystemRejectsInvalid(t *testing.T) {
	c := config.FourK()
	c.TCUs = 99
	if _, err := NewSystem(c); err == nil {
		t.Fatal("NewSystem accepted invalid config")
	}
}

func TestRowBufferStats(t *testing.T) {
	s, err := NewSystem(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	// First miss opens a row; a second miss in the same row (different
	// line, same module/channel/2KB page) hits the row buffer.
	r1 := access(s, 0, 0, false)
	if r1.Hit {
		t.Fatal("cold access hit cache")
	}
	hits, misses := s.RowBufferStats()
	if misses != 1 || hits != 0 {
		t.Fatalf("after first miss: hits=%d misses=%d", hits, misses)
	}
	// Find another address in the same DRAM row going through any
	// channel; with one channel (smallCfg) every line shares it, so any
	// line inside [0, RowBytes) keeps the row open.
	r2 := access(s, r1.Done, config.CacheLineBytes, false)
	if r2.Hit {
		t.Fatal("distinct line hit cache")
	}
	hits, _ = s.RowBufferStats()
	if hits != 1 {
		t.Fatalf("same-row miss did not hit row buffer: hits=%d", hits)
	}
	// A far address (different 2KB row) misses the row buffer and pays
	// the activate latency.
	r3 := access(s, r2.Done, 1<<20, false)
	_, misses = s.RowBufferStats()
	if misses < 2 {
		t.Fatalf("far access did not miss row buffer: misses=%d", misses)
	}
	if r3.Done-r2.Done < DRAMAccessLatency+RowActivateCycles {
		t.Fatalf("row-miss latency too small: %d", r3.Done-r2.Done)
	}
}

func TestRowMissAddsLatencyOnly(t *testing.T) {
	// Row activates must not consume channel bandwidth slots.
	s, _ := NewSystem(smallCfg(t))
	before := s.ChannelBusy()
	access(s, 0, 0, false)
	if got := s.ChannelBusy() - before; got != config.CacheLineBytes/config.DRAMBytesPerCycle {
		t.Fatalf("one line transfer consumed %d slots, want %d", got, config.CacheLineBytes/config.DRAMBytesPerCycle)
	}
}

func TestPrefetcherHelpsStreaming(t *testing.T) {
	cfg := smallCfg(t)
	run := func(prefetch bool) (uint64, uint64) {
		s, _ := NewSystem(cfg)
		s.Prefetch = prefetch
		var done, misses uint64
		t64 := uint64(0)
		for i := 0; i < 4096; i++ {
			r := access(s, t64, uint64(i*4), false)
			t64 = r.Done
			done = r.Done
		}
		misses = s.Misses()
		return done, misses
	}
	tOff, missOff := run(false)
	tOn, missOn := run(true)
	if missOn >= missOff {
		t.Errorf("prefetch did not reduce misses: %d vs %d", missOn, missOff)
	}
	if tOn >= tOff {
		t.Errorf("prefetch did not speed streaming: %d vs %d cycles", tOn, tOff)
	}
}

func TestPrefetcherCountsAndOverfetch(t *testing.T) {
	s, _ := NewSystem(smallCfg(t))
	s.Prefetch = true
	// Random far-apart lines: prefetches are pure overfetch.
	t64 := uint64(0)
	for i := 0; i < 64; i++ {
		r := access(s, t64, uint64(i)*131072+7, false)
		t64 = r.Done
	}
	if s.Prefetches() == 0 {
		t.Fatal("no prefetches recorded")
	}
	// Traffic exceeds pure demand (64 lines).
	if s.DRAMBytes() <= 64*config.CacheLineBytes {
		t.Errorf("no overfetch traffic: %d bytes", s.DRAMBytes())
	}
}

// Property (testing/quick): every access completes no earlier than its
// arrival plus the hit latency, and an immediate re-access of the same
// line after completion is a cache hit.
func TestAccessInvariantsProperty(t *testing.T) {
	cfg := smallCfg(t)
	f := func(addrs []uint32, writes []bool) bool {
		s, err := NewSystem(cfg)
		if err != nil {
			return false
		}
		now := uint64(0)
		for i, a := range addrs {
			addr := uint64(a) % (1 << 22)
			w := i < len(writes) && writes[i]
			r := access(s, now, addr, w)
			if r.Done < now+CacheHitLatency {
				return false
			}
			r2 := access(s, r.Done, addr, false)
			if !r2.Hit {
				return false
			}
			now = r2.Done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatMatchesAccess is RepeatN's oracle. From random cache, port
// and channel states, with the prefetcher on or off and DRAM faults
// armed or not, Access(t) followed by RepeatN(k) (k in 1..15, a load or
// a store run) leaves the same CaptureState as k+1 plain accesses to
// words of the same line at t, t+1, …, t+k, and returns the first and
// the last of their results. The warm-up crowds the line's own set in
// its module, so the leader hits or misses, on clean or dirty victims,
// with or without a prefetch landing in the same module.
func TestRepeatMatchesAccess(t *testing.T) {
	// 8 modules, as in smallCfg, and 1: consecutive lines never share a
	// module when there are four or more, so only the one-module machine
	// has a prefetch fill land in the demand line's module.
	var cfgs []config.Config
	for _, tcus := range []int{256, 32} {
		cfg, err := config.FourK().Scaled(tcus)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	build := func(cfg config.Config, prefetch, faults bool, seed int64, ecc bool) *System {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Prefetch = prefetch
		if faults {
			s.EnableFaults(uint64(seed), 0.2, 0.05, ecc)
		}
		return s
	}
	f := func(seed int64, one, prefetch, faults, ecc, write bool, k uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := cfgs[0]
		if one {
			cfg = cfgs[1]
		}
		a := build(cfg, prefetch, faults, seed, ecc)
		line := uint64(rng.Intn(1 << 16))
		addr := line * config.CacheLineBytes
		mi := HashAddress(addr, a.Modules())
		sets := uint64(len(a.modules[mi].ways) / ways)
		// Warm up on lines of the same module and set, and some others.
		at := uint64(0)
		for i := 0; i < 40; i++ {
			other := line + sets*uint64(rng.Intn(64))
			if rng.Intn(4) == 0 {
				other = uint64(rng.Intn(1 << 16))
			}
			access(a, at, other*config.CacheLineBytes+uint64(rng.Intn(8))*4, rng.Intn(2) == 0)
			at += uint64(rng.Intn(40))
		}
		// Put the module's port within a few cycles of the leader's
		// arrival, on either side.
		st := a.CaptureState()
		st.Modules[mi].Port.NextFree = at + uint64(rng.Intn(24)) - 8
		if err := a.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		b := build(cfg, prefetch, faults, seed, ecc)
		if err := b.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		n := uint64(k%15) + 1
		word := func() uint64 { return addr + uint64(rng.Intn(config.CacheLineBytes/4))*4 }
		w0 := word()
		lead := a.Access(at, mi, w0, write)
		last := a.RepeatN(n, write)
		if want := b.Access(at, mi, w0, write); lead != want {
			t.Logf("leader to line %#x at %d: Access %+v, want %+v", line, at, lead, want)
			return false
		}
		var want AccessResult
		for i := uint64(1); i <= n; i++ {
			want = b.Access(at+i, mi, word(), write)
		}
		if last != want {
			t.Logf("%d followers to line %#x at %d: RepeatN %+v, last Access %+v", n, line, at, last, want)
			return false
		}
		if !reflect.DeepEqual(a.CaptureState(), b.CaptureState()) {
			t.Logf("line %#x: states differ after %d followers", line, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSystemAccess times Access on the 64k-at-1024-TCU geometry of
// the sim-64k-dram workload (32 modules, 4 DRAM channels) under a
// pseudo-random word stream over 4 MiB, four times the modelled cache,
// so hits, misses and dirty writebacks all occur.
func BenchmarkSystemAccess(b *testing.B) {
	cfg, err := config.SixtyFourK().Scaled(1024)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const span = 4 << 20
	addr := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		access(s, uint64(i), addr>>40%span&^7, addr&1 == 0)
	}
}

// BenchmarkSystemAccessRuns reads BenchmarkSystemAccess's stream as
// runs of four same-line words (a, a+4, a+8, a+12) on consecutive
// cycles, the shape of a same-line run. The general path serves every
// word through Access, the repeat path serves the last three through
// RepeatN. One op is one run.
func BenchmarkSystemAccessRuns(b *testing.B) {
	cfg, err := config.SixtyFourK().Scaled(1024)
	if err != nil {
		b.Fatal(err)
	}
	const span = 4 << 20
	for _, repeat := range []bool{false, true} {
		name := "general"
		if repeat {
			name = "repeat"
		}
		b.Run(name, func(b *testing.B) {
			s, err := NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			addr := uint64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr = addr*6364136223846793005 + 1442695040888963407
				t, a, w := uint64(i)*4, addr>>40%span&^15, addr&1 == 0
				access(s, t, a, w)
				if repeat {
					s.RepeatN(3, w)
				} else {
					for k := uint64(1); k < 4; k++ {
						access(s, t+k, a+4*k, w)
					}
				}
			}
		})
	}
}
