package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestPortSingleWidth(t *testing.T) {
	p := NewPort(1)
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
	p := NewPort(3)
	got := []uint64{p.Grant(0), p.Grant(0), p.Grant(0), p.Grant(0)}
	want := []uint64{0, 0, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
}

func TestPortGrantN(t *testing.T) {
	p := NewPort(1)
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
		p := NewPort(w)
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

func TestPipeTraverse(t *testing.T) {
	p := NewPipe(7, 2)
	if got := p.Traverse(0); got != 7 {
		t.Fatalf("exit = %d, want 7", got)
	}
	if got := p.Traverse(0); got != 7 {
		t.Fatalf("exit = %d, want 7 (width 2)", got)
	}
	if got := p.Traverse(0); got != 8 {
		t.Fatalf("exit = %d, want 8 (third in cycle)", got)
	}
}

func TestGrantNLast(t *testing.T) {
	// Width-4 port: 10 slots from cycle 0 occupy cycles 0,0,0,0,1,1,1,1,2,2;
	// the last grant lands at cycle 2.
	p := NewPort(4)
	if last := p.GrantNLast(0, 10); last != 2 {
		t.Fatalf("last = %d, want 2", last)
	}
	// Zero-op segment completes immediately.
	if last := p.GrantNLast(7, 0); last != 7 {
		t.Fatalf("empty segment last = %d, want 7", last)
	}
	// Width-1: n ops end n-1 cycles after the first.
	q := NewPort(1)
	if last := q.GrantNLast(5, 3); last != 7 {
		t.Fatalf("width-1 last = %d, want 7", last)
	}
}

func TestGrantNSharesSlots(t *testing.T) {
	// On a wide port, GrantN must pack slots into cycles rather than
	// serializing (the bug the FPU-width test originally caught).
	p := NewPort(4)
	first := p.GrantN(0, 8)
	if first != 0 {
		t.Fatalf("first = %d", first)
	}
	// 8 slots at width 4 = cycles 0 and 1; a 9th request lands at 2.
	if g := p.Grant(0); g != 2 {
		t.Fatalf("next grant = %d, want 2", g)
	}
}

func TestPipeZeroWidthDefaults(t *testing.T) {
	p := NewPipe(3, 0) // zero width behaves as width 1
	if got := p.Traverse(0); got != 3 {
		t.Fatalf("exit = %d", got)
	}
	if got := p.Traverse(0); got != 4 {
		t.Fatalf("second exit = %d", got)
	}
}
