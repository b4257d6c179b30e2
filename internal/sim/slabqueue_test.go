package sim

import (
	"math/rand"
	"testing"
)

// White-box audit of the slab-backed bucketQueue against a naive
// reference queue. The queue's usage contract (from Shard/runWindow):
// pushes never precede base, advanceBase(t) is only called when every
// event below t has been executed, and pops always take the global
// minimum. Within that contract the queue must behave exactly like a
// sorted list popped in (time, insertion order): the bucket chains, the
// overflow heap, promotions between them and the wrap-free membership
// test are all implementation detail.

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

func (r refQueue) min() (uint64, bool) {
	if len(r) == 0 {
		return 0, false
	}
	best := r[0].time
	for _, ev := range r[1:] {
		if ev.time < best {
			best = ev.time
		}
	}
	return best, true
}

// popMin mirrors runWindow's drain of exactly one event: advance the
// ring floor to the minimum (promoting overflow records) and unlink the
// head of that cycle's bucket chain with runWindow's own unlinkHead.
func popMin(t *testing.T, q *bucketQueue) (uint64, uint64) {
	t.Helper()
	mt, ok := q.min()
	if !ok {
		t.Fatal("popMin on empty queue")
	}
	q.advanceBase(mt)
	b := mt % horizonCycles
	cur := q.head[b]
	if cur < 0 {
		t.Fatalf("min %d (base %d) has an empty bucket — promotion or scan bug", mt, q.base)
	}
	a := q.recs[cur].a
	q.unlinkHead(b)
	return mt, a
}

// drainMin pops the minimum without the audit popMin does, for the
// allocation contract and the benchmarks.
func drainMin(q *bucketQueue) {
	mt, _ := q.min()
	q.advanceBase(mt)
	q.unlinkHead(mt % horizonCycles)
}

// checkOccupancy asserts the occupancy map's invariant: bit b is set
// exactly when bucket b's chain is non-empty.
func checkOccupancy(t *testing.T, q *bucketQueue) {
	t.Helper()
	for b := range q.head {
		bit := q.occ[b/64]>>(b%64)&1 == 1
		if bit != (q.head[b] >= 0) {
			t.Fatalf("bucket %d: occupancy bit %v, head %d (base %d)", b, bit, q.head[b], q.base)
		}
	}
}

// checkQueueSequence drives a bucketQueue and the reference through the
// same op sequence starting at the given base. Each byte of ops picks an
// operation; the time offsets come from the op stream too, so the
// checker is usable both from the seeded property test and the native
// fuzz target.
func checkQueueSequence(t *testing.T, startBase uint64, ops []byte) {
	t.Helper()
	q := &bucketQueue{}
	q.init()
	q.advanceBase(startBase)
	var ref refQueue
	var nextID uint64
	// maxOffset bounds time offsets from the *current* base so times
	// never overflow uint64 when base sits near the top of the range (the
	// engine never wraps: t >= now >= base always holds there).
	maxOffset := func() uint64 {
		off := uint64(4 * horizonCycles)
		if room := ^uint64(0) - q.base; room < off {
			off = room
		}
		return off
	}
	at := 0
	next := func() uint64 {
		if at >= len(ops) {
			return 0
		}
		v := ops[at]
		at++
		return uint64(v)
	}
	for at < len(ops) {
		switch op := next(); {
		case op < 140: // push
			// Two bytes of offset spread pushes across the bucket ring and
			// well into overflow territory.
			off := (next()<<8 | next()) % (maxOffset() + 1)
			tm := q.base + off
			id := nextID
			nextID++
			q.push(tm, 0, id, 0)
			ref.push(tm, id)
		case op < 220: // pop the minimum, cross-checked
			if len(ref) == 0 {
				if _, ok := q.min(); ok {
					t.Fatalf("queue reports min with %d events, reference is empty", q.count)
				}
				continue
			}
			want := ref.pop()
			gotT, gotID := popMin(t, q)
			if gotT != want.time || gotID != want.id {
				t.Fatalf("pop = (t=%d id=%d), want (t=%d id=%d); base=%d",
					gotT, gotID, want.time, want.id, q.base)
			}
		default: // advanceBase, clamped to the contract (t <= current min)
			tgt := q.base + (next()<<3)%(maxOffset()+1)
			if m, ok := ref.min(); ok && tgt > m {
				tgt = m
			}
			q.advanceBase(tgt)
			// Also exercise the t <= base no-op path.
			q.advanceBase(q.base)
		}
		// Step invariants: the occupancy map mirrors the chains, counts
		// agree and min agrees (min is repeatable: it must not consume or
		// reorder anything).
		checkOccupancy(t, q)
		if q.count != len(ref) {
			t.Fatalf("count = %d, reference holds %d", q.count, len(ref))
		}
		wantMin, wantOK := ref.min()
		for i := 0; i < 2; i++ {
			gotMin, gotOK := q.min()
			if gotOK != wantOK || (gotOK && gotMin != wantMin) {
				t.Fatalf("min() #%d = (%d,%v), want (%d,%v); base=%d",
					i, gotMin, gotOK, wantMin, wantOK, q.base)
			}
		}
	}
	// Drain fully: the tail must come out in exact (time, insertion) order.
	for len(ref) > 0 {
		want := ref.pop()
		gotT, gotID := popMin(t, q)
		if gotT != want.time || gotID != want.id {
			t.Fatalf("drain pop = (t=%d id=%d), want (t=%d id=%d)", gotT, gotID, want.time, want.id)
		}
		checkOccupancy(t, q)
	}
	if _, ok := q.min(); ok || q.count != 0 {
		t.Fatalf("queue not empty after drain: count=%d", q.count)
	}
}

// TestBucketQueueProperty cross-checks random push/pop/advance sequences
// against the naive reference, in the normal regime and with base parked
// just below the top of the uint64 range so the `t-base < horizon`
// membership test runs in its wraparound-hazard zone.
func TestBucketQueueProperty(t *testing.T) {
	bases := []uint64{
		0,
		1,
		horizonCycles - 1,
		^uint64(0) - 16*horizonCycles, // near-overflow: wrap-free subtraction regime
		^uint64(0) - horizonCycles/2,  // less than one horizon of headroom
	}
	for _, base := range bases {
		rng := rand.New(rand.NewSource(int64(base%1e9) + 7))
		for round := 0; round < 20; round++ {
			ops := make([]byte, 400)
			rng.Read(ops)
			checkQueueSequence(t, base, ops)
		}
	}
}

// TestBucketQueueEmpty pins down the empty-queue edges: min is absent,
// advanceBase is harmless at any distance, and the queue is immediately
// reusable afterwards.
func TestBucketQueueEmpty(t *testing.T) {
	q := &bucketQueue{}
	q.init()
	if _, ok := q.min(); ok {
		t.Fatal("empty queue reports a min")
	}
	if mt := q.minTime(); mt != noEvent {
		t.Fatalf("empty minTime = %d, want noEvent", mt)
	}
	q.advanceBase(5 * horizonCycles)
	q.advanceBase(5 * horizonCycles) // t == base no-op
	q.advanceBase(3 * horizonCycles) // t < base no-op
	if _, ok := q.min(); ok || q.count != 0 {
		t.Fatal("advanceBase on empty queue left state behind")
	}
	q.push(5*horizonCycles+3, 1, 42, 0)
	mt, ok := q.min()
	if !ok || mt != 5*horizonCycles+3 {
		t.Fatalf("min after reuse = (%d,%v), want (%d,true)", mt, ok, 5*horizonCycles+3)
	}
	gotT, gotID := popMin(t, q)
	if gotT != 5*horizonCycles+3 || gotID != 42 {
		t.Fatalf("pop after reuse = (%d,%d)", gotT, gotID)
	}
}

// FuzzBucketQueue lets the fuzzer search for op sequences that divorce
// the slab queue from the reference. `go test` runs the seed corpus;
// `go test -fuzz=FuzzBucketQueue ./internal/sim` explores.
func FuzzBucketQueue(f *testing.F) {
	f.Add(uint64(0), []byte{10, 1, 200, 10, 2, 100, 150, 230, 7, 160})
	f.Add(^uint64(0)-16*horizonCycles, []byte{10, 200, 200, 10, 0, 1, 255, 255, 160, 160})
	f.Add(uint64(horizonCycles-1), []byte{0, 255, 255, 0, 0, 0, 230, 0, 170, 170, 170})
	f.Fuzz(func(t *testing.T, base uint64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		checkQueueSequence(t, base, ops)
	})
}

// TestBucketQueueHotPathZeroAllocs is the regression contract the slab
// refactor exists for: once the slab and freelist are warm, push and pop
// allocate nothing.
func TestBucketQueueHotPathZeroAllocs(t *testing.T) {
	q := &bucketQueue{}
	q.init()
	// Warm the slab, the freelist and the outbox-free pop path.
	for i := uint64(0); i < 256; i++ {
		q.push(q.base+i%horizonCycles, 0, i, 0)
	}
	for q.count > 0 {
		popMin(t, q)
	}
	tm := q.base
	allocs := testing.AllocsPerRun(200, func() {
		for i := uint64(0); i < 64; i++ {
			q.push(tm+i%64, 0, i, 0)
		}
		for q.count > 0 {
			drainMin(q)
		}
		tm = q.base
	})
	if allocs != 0 {
		t.Fatalf("push/pop hot path allocates %.1f times per run, want 0", allocs)
	}
}

// Benchmark pair for the hot path: b.ReportAllocs makes allocs/op part
// of the recorded benchmark output (the zero-alloc contract is enforced
// by TestBucketQueueHotPathZeroAllocs; the pair tracks ns/op drift).
func BenchmarkSlabQueuePush(b *testing.B) {
	q := &bucketQueue{}
	q.init()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.push(q.base+uint64(i%horizonCycles), 0, uint64(i), 0)
		if q.count >= horizonCycles {
			// Bound memory: drop everything by resetting chains via pops.
			b.StopTimer()
			for q.count > 0 {
				drainMin(q)
			}
			b.StartTimer()
		}
	}
}

func BenchmarkSlabQueuePushPop(b *testing.B) {
	q := &bucketQueue{}
	q.init()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.push(q.base+uint64(i%257), 0, uint64(i), 0)
		drainMin(q)
	}
}
