package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// refPort is the per-slot reference every Port method is held to: one
// slot per step, with nextFree moving on a cycle once used reaches the
// width.
type refPort struct {
	w                    uint64
	nextFree, used, busy uint64
}

func (p *refPort) grant(t uint64) uint64 {
	w := p.w
	if w == 0 {
		w = 1
	}
	if t > p.nextFree {
		p.nextFree = t
		p.used = 0
	}
	g := p.nextFree
	p.used++
	p.busy++
	if p.used >= w {
		p.nextFree++
		p.used = 0
	}
	return g
}

// grantN takes n slots one step at a time and returns the first and the
// last granted cycle (t, t when n is 0).
func (p *refPort) grantN(t, n uint64) (first, last uint64) {
	if n == 0 {
		return t, t
	}
	first = p.grant(t)
	last = first
	for i := uint64(1); i < n; i++ {
		if g := p.grant(t); g > last {
			last = g
		}
	}
	return first, last
}

func (p *refPort) state() PortState {
	return PortState{NextFree: p.nextFree, Used: p.used, Busy: p.busy}
}

// TestPortMatchesPerSlotReference: from any reachable state (used below
// the width) Grant, GrantN and GrantNLast return the cycle the per-slot
// loop returns and leave the state it leaves, at widths 0-4 and n up to
// 300, with t on either side of nextFree.
func TestPortMatchesPerSlotReference(t *testing.T) {
	f := func(width uint8, nextFree uint32, used uint8, busy uint32, dt int16, n uint16) bool {
		w := uint64(width % 5)
		st := PortState{NextFree: uint64(nextFree) + 1<<15, Busy: uint64(busy)}
		if w > 1 {
			st.Used = uint64(used) % w
		}
		at := uint64(int64(st.NextFree) + int64(dt))
		cnt := uint64(n % 301)

		check := func(name string, slots uint64, grant func(p *Port) uint64, last bool) bool {
			ref := refPort{w: w, nextFree: st.NextFree, used: st.Used, busy: st.Busy}
			wantG, wantLast := ref.grantN(at, slots)
			if last {
				wantG = wantLast
			}
			p := Port{Width: w}
			p.RestoreState(st)
			if g := grant(&p); g != wantG || p.State() != ref.state() {
				t.Logf("%s w=%d from %+v at t=%d n=%d: got %d %+v, want %d %+v",
					name, w, st, at, slots, g, p.State(), wantG, ref.state())
				return false
			}
			return true
		}
		return check("Grant", 1, func(p *Port) uint64 { return p.Grant(at) }, false) &&
			check("GrantN", cnt, func(p *Port) uint64 { return p.GrantN(at, cnt) }, false) &&
			check("GrantNLast", cnt, func(p *Port) uint64 { return p.GrantNLast(at, cnt) }, true)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestPortGrantNext: GrantNext(n) takes the slots of n Grant(t) calls
// for any t at or before the next free slot and returns the last, at
// widths 0-4 and n up to 40 from any reachable state.
func TestPortGrantNext(t *testing.T) {
	f := func(width uint8, nextFree uint32, used uint8, busy uint32, back uint16, k uint8) bool {
		w := uint64(width % 5)
		st := PortState{NextFree: uint64(nextFree) + 1<<16, Busy: uint64(busy)}
		if w > 1 {
			st.Used = uint64(used) % w
		}
		n := uint64(k%40) + 1
		ref := refPort{w: w, nextFree: st.NextFree, used: st.Used, busy: st.Busy}
		_, want := ref.grantN(st.NextFree-uint64(back), n)
		p := Port{Width: w}
		p.RestoreState(st)
		if g := p.GrantNext(n); g != want || p.State() != ref.state() {
			t.Logf("w=%d from %+v: got %d %+v, want %d %+v", w, st, g, p.State(), want, ref.state())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPortSingleWidth(t *testing.T) {
	p := Port{Width: 1}
	if g := p.Grant(5); g != 5 {
		t.Fatalf("first grant = %d, want 5", g)
	}
	if g := p.Grant(5); g != 6 {
		t.Fatalf("second grant = %d, want 6", g)
	}
	if g := p.Grant(3); g != 7 {
		t.Fatalf("backlogged grant = %d, want 7", g)
	}
	if g := p.Grant(100); g != 100 {
		t.Fatalf("idle grant = %d, want 100", g)
	}
	if p.Busy != 4 {
		t.Fatalf("busy = %d, want 4", p.Busy)
	}
}

func TestPortWide(t *testing.T) {
	p := Port{Width: 3}
	got := []uint64{p.Grant(0), p.Grant(0), p.Grant(0), p.Grant(0)}
	want := []uint64{0, 0, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
}

func TestPortGrantN(t *testing.T) {
	p := Port{Width: 1}
	if g := p.GrantN(10, 4); g != 10 {
		t.Fatalf("burst grant = %d, want 10", g)
	}
	// Channel occupied for cycles 10..13; next single grant lands at 14.
	if g := p.Grant(0); g != 14 {
		t.Fatalf("post-burst grant = %d, want 14", g)
	}
}

func TestPortZeroWidthDefaultsToOne(t *testing.T) {
	var p Port // zero value usable
	if g := p.Grant(0); g != 0 {
		t.Fatalf("grant = %d, want 0", g)
	}
	if g := p.Grant(0); g != 1 {
		t.Fatalf("grant = %d, want 1", g)
	}
}

// Property: a width-w port grants at most w slots per cycle and never
// grants before the request time.
func TestPortThroughputProperty(t *testing.T) {
	f := func(width uint8, reqs []uint8) bool {
		w := uint64(width%4) + 1
		p := Port{Width: w}
		times := make([]uint64, len(reqs))
		for i, r := range reqs {
			times[i] = uint64(r % 8)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		perCycle := map[uint64]uint64{}
		for _, r := range times {
			g := p.Grant(r)
			if g < r {
				return false
			}
			perCycle[g]++
			if perCycle[g] > w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGrantNLast(t *testing.T) {
	// Width-4 port: 10 slots from cycle 0 occupy cycles 0,0,0,0,1,1,1,1,2,2;
	// the last grant lands at cycle 2.
	p := Port{Width: 4}
	if last := p.GrantNLast(0, 10); last != 2 {
		t.Fatalf("last = %d, want 2", last)
	}
	// Zero-op segment completes immediately.
	if last := p.GrantNLast(7, 0); last != 7 {
		t.Fatalf("empty segment last = %d, want 7", last)
	}
	// Width-1: n ops end n-1 cycles after the first.
	q := Port{Width: 1}
	if last := q.GrantNLast(5, 3); last != 7 {
		t.Fatalf("width-1 last = %d, want 7", last)
	}
}

func TestGrantNSharesSlots(t *testing.T) {
	// On a wide port, GrantN must pack slots into cycles rather than
	// serializing (the bug the FPU-width test originally caught).
	p := Port{Width: 4}
	first := p.GrantN(0, 8)
	if first != 0 {
		t.Fatalf("first = %d", first)
	}
	// 8 slots at width 4 = cycles 0 and 1; a 9th request lands at 2.
	if g := p.Grant(0); g != 2 {
		t.Fatalf("next grant = %d, want 2", g)
	}
}

// grantSink keeps the benchmarked grants live.
var grantSink uint64

// BenchmarkPortGrant times three grant shapes: a width-1 Grant (module,
// NoC switch and load/store ports), a width-4 Grant (a wide load/store
// port, which no shipped configuration has), and a 64-FLOP segment on a
// width-4 FPU port. Requests arrive at half
// the port's rate with 0-7 cycles of pseudo-random jitter, so the port
// is idle for some and backlogged for others, unpredictably, as under
// real traffic.
func BenchmarkPortGrant(b *testing.B) {
	jitter := func(x *uint64) uint64 {
		*x = *x*6364136223846793005 + 1442695040888963407
		return *x >> 61
	}
	b.Run("width1", func(b *testing.B) {
		p, x := Port{Width: 1}, uint64(1)
		for i := 0; i < b.N; i++ {
			grantSink += p.Grant(uint64(i)*2 + jitter(&x))
		}
	})
	b.Run("width4", func(b *testing.B) {
		p, x := Port{Width: 4}, uint64(1)
		for i := 0; i < b.N; i++ {
			grantSink += p.Grant(uint64(i)/2 + jitter(&x))
		}
	})
	b.Run("GrantNLast64", func(b *testing.B) {
		p, x := Port{Width: 4}, uint64(1)
		for i := 0; i < b.N; i++ {
			grantSink += p.GrantNLast(uint64(i)*16+jitter(&x), 64)
		}
	})
}
