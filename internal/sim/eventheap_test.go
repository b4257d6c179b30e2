package sim

import (
	"math/rand"
	"testing"
)

// White-box audit of the shard event heap against a naive reference
// queue. The heap's usage contract (from Shard/runWindow): pops always
// take the minimum, and pushes never precede the latest popped time
// (Shard.At panics in the shard's past). Within that contract the heap
// must behave exactly like a list popped in (time, insertion order).

// refEvent is one event in the naive reference queue.
type refEvent struct {
	time uint64
	id   uint64 // global insertion order
}

// refQueue is the executable specification: an unordered list popped by
// linear scan for min (time, id).
type refQueue []refEvent

func (r *refQueue) push(t, id uint64) { *r = append(*r, refEvent{t, id}) }

func (r *refQueue) pop() refEvent {
	s := *r
	best := 0
	for i := 1; i < len(s); i++ {
		if s[i].time < s[best].time ||
			(s[i].time == s[best].time && s[i].id < s[best].id) {
			best = i
		}
	}
	ev := s[best]
	s[best] = s[len(s)-1]
	*r = s[:len(s)-1]
	return ev
}

func (r refQueue) min() uint64 {
	best := noEvent
	for _, ev := range r {
		if ev.time < best {
			best = ev.time
		}
	}
	return best
}

// checkHeapSequence drives an eventHeap and the reference through the
// same op sequence, with every push at or after the latest popped time,
// which starts at now. Each byte of ops picks an operation and the time
// offsets come from the op stream too, so the checker serves both the
// seeded property test and the native fuzz target. Small offsets pile
// many events onto a few cycles, so FIFO within a cycle is exercised
// as much as the time order.
func checkHeapSequence(t *testing.T, now uint64, ops []byte) {
	t.Helper()
	now = min(now, noEvent-1) // noEvent is no event's time
	h := &eventHeap{}
	var ref refQueue
	var nextID uint64
	at := 0
	next := func() uint64 {
		if at >= len(ops) {
			return 0
		}
		v := ops[at]
		at++
		return uint64(v)
	}
	// off bounds an offset from now so times never overflow uint64 when
	// now sits near the top of the range.
	off := func(v uint64) uint64 {
		if room := ^uint64(0) - 1 - now; v > room {
			return v % (room + 1)
		}
		return v
	}
	pop := func() {
		want := ref.pop()
		got := h.pop()
		if got.time != want.time || got.a != want.id || uint8(got.key) != uint8(want.id) {
			t.Fatalf("pop = (t=%d id=%d op=%d), want (t=%d id=%d op=%d)",
				got.time, got.a, uint8(got.key), want.time, want.id, uint8(want.id))
		}
		now = got.time
	}
	for at < len(ops) {
		switch op := next(); {
		case op < 90: // push onto one of the next few cycles
			tm := now + off(next()%4)
			h.push(tm, uint8(nextID), nextID, 0)
			ref.push(tm, nextID)
			nextID++
		case op < 150: // push anywhere in the next 65,536 cycles
			tm := now + off(next()<<8|next())
			h.push(tm, uint8(nextID), nextID, 0)
			ref.push(tm, nextID)
			nextID++
		default: // pop the minimum, cross-checked
			if len(ref) == 0 {
				if h.min() != noEvent {
					t.Fatalf("heap reports min %d, reference is empty", h.min())
				}
				continue
			}
			pop()
		}
		if len(h.ev) != len(ref) {
			t.Fatalf("heap holds %d events, reference %d", len(h.ev), len(ref))
		}
		if got, want := h.min(), ref.min(); got != want {
			t.Fatalf("min = %d, want %d", got, want)
		}
	}
	// Drain: the tail must come out in exact (time, insertion) order.
	for len(ref) > 0 {
		pop()
	}
	if h.min() != noEvent || len(h.ev) != 0 {
		t.Fatalf("heap not empty after drain: %d events", len(h.ev))
	}
}

// TestEventHeapProperty cross-checks random push/pop sequences against
// the naive reference, from clocks at 0 and just below the top of the
// uint64 range.
func TestEventHeapProperty(t *testing.T) {
	for _, now := range []uint64{0, 1, 1 << 40, ^uint64(0) - 1<<20, ^uint64(0) - 3} {
		rng := rand.New(rand.NewSource(int64(now%1e9) + 7))
		for round := 0; round < 40; round++ {
			ops := make([]byte, 600)
			rng.Read(ops)
			checkHeapSequence(t, now, ops)
		}
	}
}

// TestEventHeapEmpty pins down the empty-heap edges: min is noEvent,
// and the heap is reusable after it drains.
func TestEventHeapEmpty(t *testing.T) {
	h := &eventHeap{}
	if h.min() != noEvent {
		t.Fatal("empty heap reports a min")
	}
	h.push(7, 1, 42, 0)
	if h.min() != 7 {
		t.Fatalf("min after one push = %d, want 7", h.min())
	}
	if e := h.pop(); e.time != 7 || e.a != 42 || uint8(e.key) != 1 {
		t.Fatalf("pop = %+v", e)
	}
	if h.min() != noEvent {
		t.Fatal("drained heap reports a min")
	}
	h.push(3, 2, 43, 0)
	if e := h.pop(); e.time != 3 || e.a != 43 {
		t.Fatalf("pop after reuse = %+v", e)
	}
}

// FuzzEventHeap lets the fuzzer search for op sequences that divorce
// the heap from the reference. `go test` runs the seed corpus;
// `go test -fuzz=FuzzEventHeap ./internal/sim` explores.
func FuzzEventHeap(f *testing.F) {
	f.Add(uint64(0), []byte{10, 1, 200, 10, 2, 100, 150, 230, 7, 160})
	f.Add(^uint64(0)-16, []byte{10, 200, 200, 10, 0, 1, 255, 255, 160, 160})
	f.Add(uint64(2047), []byte{0, 3, 0, 3, 0, 3, 95, 0, 1, 200, 200, 200})
	f.Fuzz(func(t *testing.T, now uint64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		checkHeapSequence(t, now, ops)
	})
}

// TestEventHeapHotPathZeroAllocs: once the heap has grown to its peak
// depth, push and pop allocate nothing.
func TestEventHeapHotPathZeroAllocs(t *testing.T) {
	h := &eventHeap{}
	for i := uint64(0); i < 64; i++ {
		h.push(i, 0, i, 0)
	}
	for len(h.ev) > 0 {
		h.pop()
	}
	now := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		for i := uint64(0); i < 64; i++ {
			h.push(now+i*7%64, 0, i, 0)
		}
		for len(h.ev) > 0 {
			now = h.pop().time
		}
	})
	if allocs != 0 {
		t.Fatalf("push/pop allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkEventHeap times the steady state of a shard on the
// sim-64k-dram machine: 32 pending events, each pop followed by a push
// of a resume 1 to 256 cycles later. One op is one push and one pop.
func BenchmarkEventHeap(b *testing.B) {
	h := &eventHeap{}
	rng := rand.New(rand.NewSource(1))
	delays := make([]uint64, 4096)
	for i := range delays {
		delays[i] = 1 + uint64(rng.Intn(256))
	}
	for i := uint64(0); i < 32; i++ {
		h.push(delays[i], 1, i, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := h.pop()
		h.push(e.time+delays[i%len(delays)], 1, e.a, 0)
	}
}
