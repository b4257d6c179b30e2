package mem

import (
	"math/rand"
	"testing"

	"xmtfft/internal/config"
)

// refLine and refCache are the timestamp-LRU cache slices the packed
// ways replaced, kept as their oracle: one line per way with a last-use
// stamp from a per-module tick, and a victim scan that starts at way 0,
// stops at the first invalid way after it and otherwise keeps the
// smallest stamp. Only the cache state is modelled: ports, channels and
// faults are the same code either way.
type refLine struct {
	tag          uint64
	valid, dirty bool
	used         uint64
}

type refCache struct {
	lines    [][]refLine // per module, set-major
	tick     []uint64    // per module
	sets     uint64
	prefetch bool

	hits, misses, writebacks, prefetches uint64
}

func newRefCache(s *System) *refCache {
	r := &refCache{sets: s.modules[0].setMask + 1, prefetch: s.Prefetch}
	for range s.modules {
		r.lines = append(r.lines, make([]refLine, len(s.modules[0].ways)))
		r.tick = append(r.tick, 0)
	}
	return r
}

func (r *refCache) set(mi int, tag uint64) []refLine {
	return r.lines[mi][tag%r.sets*ways:][:ways]
}

// fill is the replaced code's victim scan and fill at stamp used.
func (r *refCache) fill(set []refLine, tag uint64, dirty bool, used uint64) {
	victim := 0
	for i := 1; i < ways; i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		r.writebacks++
	}
	set[victim] = refLine{tag: tag, valid: true, dirty: dirty, used: used}
}

// access is one demand access to module mi, with the next-line
// prefetch of a miss when the prefetcher is on; it reports a hit.
func (r *refCache) access(mi int, addr uint64, write bool) bool {
	tag := addr / config.CacheLineBytes
	set := r.set(mi, tag)
	r.tick[mi]++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = r.tick[mi]
			set[i].dirty = set[i].dirty || write
			r.hits++
			return true
		}
	}
	r.misses++
	r.fill(set, tag, write, r.tick[mi])
	if r.prefetch {
		next := addr + config.CacheLineBytes
		pi := HashAddress(next, len(r.lines))
		nset := r.set(pi, tag+1)
		for i := range nset {
			if nset[i].valid && nset[i].tag == tag+1 {
				return false
			}
		}
		r.prefetches++
		r.tick[pi]++
		r.fill(nset, tag+1, false, r.tick[pi])
	}
	return false
}

func (r *refCache) flush() int {
	n := 0
	for _, lines := range r.lines {
		for i := range lines {
			if lines[i].valid && lines[i].dirty {
				lines[i].dirty = false
				n++
			}
		}
	}
	r.writebacks += uint64(n)
	return n
}

func (r *refCache) invalidate() {
	for _, lines := range r.lines {
		clear(lines)
	}
}

// state returns st with the reference's lines and stamps in place of
// the captured ones: the checkpoint the replaced code would have
// written at this point.
func (r *refCache) state(st SystemState) SystemState {
	for mi := range st.Modules {
		ms := &st.Modules[mi]
		ms.UseTick = r.tick[mi]
		ms.Lines = make([]LineState, len(r.lines[mi]))
		for k, l := range r.lines[mi] {
			ms.Lines[k] = LineState{Tag: l.tag, Valid: l.valid, Dirty: l.dirty, Used: l.used}
		}
	}
	return st
}

// checkSameCache compares s's cache contents with the reference's:
// every way's tag, validity and dirtiness, and every set's LRU order of
// its valid ways.
func checkSameCache(t *testing.T, s *System, r *refCache) {
	t.Helper()
	got := s.CaptureState()
	want := r.state(s.CaptureState())
	for mi := range got.Modules {
		g, w := got.Modules[mi].Lines, want.Modules[mi].Lines
		for k := range g {
			if g[k].Valid != w[k].Valid || g[k].Valid && (g[k].Tag != w[k].Tag || g[k].Dirty != w[k].Dirty) {
				t.Fatalf("module %d way %d holds %+v, reference %+v", mi, k, g[k], w[k])
			}
		}
		for k := 0; k < len(g); k += ways {
			if !sameOrder((*[ways]LineState)(g[k:]), (*[ways]LineState)(w[k:])) {
				t.Fatalf("module %d set %d: LRU order %+v, reference %+v", mi, k/ways, g[k:k+ways], w[k:k+ways])
			}
		}
	}
}

// sameOrder reports whether two sets with the same valid ways order
// them alike by last use.
func sameOrder(a, b *[ways]LineState) bool {
	oa, ob := lruOrder(a), lruOrder(b)
	var pa, pb []int
	for p := range ways {
		if w := int(oa >> (2 * p) & 3); a[w].Valid {
			pa = append(pa, w)
		}
		if w := int(ob >> (2 * p) & 3); b[w].Valid {
			pb = append(pb, w)
		}
	}
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

// TestPackedWaysMatchTimestampLRU drives the memory system and the
// timestamp-LRU reference with the same random word streams, with the
// prefetcher on and off, over a span eight times the modelled cache so
// sets fill and evict clean and dirty lines. Every access must hit or
// miss alike, with the same hit, miss, writeback and prefetch counts;
// Flush must write back as many lines; and the cache contents and LRU
// orders must agree after Invalidate and every few hundred accesses.
// Midway through some streams the system is replaced by one restored
// from its own checkpoint, or from the reference's timestamps (the
// checkpoint the replaced code would have written), and must go on in
// step.
func TestPackedWaysMatchTimestampLRU(t *testing.T) {
	cfg := smallCfg(t)
	span := uint64(8 * config.CacheBytesPerModule * cfg.MemModules)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Prefetch = seed%2 == 0
		r := newRefCache(s)
		restore := func(st SystemState) {
			fresh, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			s = fresh
		}
		now := uint64(0)
		for i := 0; i < 20000; i++ {
			switch op := rng.Intn(1000); {
			case op == 0:
				if got, want := s.Flush(), r.flush(); got != want {
					t.Fatalf("seed %d access %d: Flush wrote back %d lines, reference %d", seed, i, got, want)
				}
			case op == 1:
				s.Invalidate()
				r.invalidate()
				checkSameCache(t, s, r)
			case op == 2:
				restore(s.CaptureState())
			case op == 3:
				restore(r.state(s.CaptureState()))
			default:
				// Mostly a few hot lines per set, so hits, LRU reorders
				// and evictions all occur.
				addr := uint64(rng.Int63n(int64(span))) &^ 3
				if rng.Intn(2) == 0 {
					addr %= span / 16
				}
				w := rng.Intn(3) == 0
				res := access(s, now, addr, w)
				if hit := r.access(HashAddress(addr, s.Modules()), addr, w); res.Hit != hit {
					t.Fatalf("seed %d access %d to %#x: hit %v, reference %v", seed, i, addr, res.Hit, hit)
				}
				now += uint64(rng.Intn(4))
			}
			if s.Hits() != r.hits || s.Misses() != r.misses || s.Writebacks() != r.writebacks || s.Prefetches() != r.prefetches {
				t.Fatalf("seed %d access %d: hits/misses/writebacks/prefetches %d/%d/%d/%d, reference %d/%d/%d/%d",
					seed, i, s.Hits(), s.Misses(), s.Writebacks(), s.Prefetches(), r.hits, r.misses, r.writebacks, r.prefetches)
			}
			if i%500 == 0 {
				checkSameCache(t, s, r)
			}
		}
		checkSameCache(t, s, r)
	}
}

// TestRestoreTimestampsEvictsSameWays restores hand-built sets whose
// stamps are running timestamps, ties between valid ways included, and
// checks that a stream of misses into each set evicts the ways the
// timestamp scan evicts, in the same order.
func TestRestoreTimestampsEvictsSameWays(t *testing.T) {
	cfg := smallCfg(t)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 150; round++ {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := newRefCache(s)
		const mi = 0
		sets := r.sets
		var lines []uint64 // lines of module mi, set 5 first
		for line := uint64(0); len(lines) < 12; line++ {
			if line%sets == 5 && HashAddress(line*config.CacheLineBytes, s.Modules()) == mi {
				lines = append(lines, line)
			}
		}
		// The first four lines in set 5, some ways invalid (stamp 0,
		// as the replaced code left them) and stamps drawn from a small
		// range so valid ways often tie.
		set := r.set(mi, lines[0])
		for w := range set {
			if rng.Intn(4) != 0 {
				set[w] = refLine{tag: lines[w], valid: true, dirty: rng.Intn(2) == 0, used: 1 + uint64(rng.Intn(3))}
			}
		}
		r.tick[mi] = 3
		if err := s.RestoreState(r.state(s.CaptureState())); err != nil {
			t.Fatal(err)
		}
		checkSameCache(t, s, r)
		for i, line := range lines[4:] {
			addr := line * config.CacheLineBytes
			w := i%3 == 0
			access(s, uint64(i), addr, w)
			r.access(mi, addr, w)
			checkSameCache(t, s, r)
		}
		if s.Writebacks() != r.writebacks {
			t.Fatalf("round %d: %d writebacks, reference %d", round, s.Writebacks(), r.writebacks)
		}
	}
}
