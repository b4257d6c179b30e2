// Package sim provides the deterministic discrete-event simulation
// engine beneath the XMT machine model, measured in clock cycles. Model
// state is partitioned into shards that advance in conservative
// lookahead windows and interact only through boundary messages merged
// at window barriers; hardware structures with per-cycle grant limits
// (cluster ports, cache module ports, DRAM channel slots, NoC switches)
// are modelled as Ports.
//
// Determinism: events scheduled for the same cycle on a shard fire in
// the order they were scheduled (FIFO within a cycle), and barrier
// messages merge in (time, shard, send order), so repeated runs of the
// same workload produce identical cycle counts.
package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// Conservative parallel discrete-event simulation (PDES) with time
// windows. State is partitioned into shards that interact only through
// boundary messages: within a window [T, T+W) every shard executes its
// local events independently, and at the window barrier the coordinator
// merges all emitted messages in deterministic (time, shard, send order)
// order and converts them into future events. W (the lookahead) must not
// exceed the minimum cross-shard effect latency, so no message ever
// needs to take effect inside the window it was sent in — the classic
// conservative-synchronization safety condition. Under that condition
// the shards of one window are independent, so Run advances them one
// after another on the calling goroutine. Spreading them over several
// goroutines does not pay: the coordinator's barrier work, which runs
// serially either way, dominates the profile (DESIGN.md §7).
//
// Per-shard pending events live in a slab-backed calendar queue: per-
// cycle FIFO bucket chains over a fixed horizon whose records live in
// one reusable flat slab (plus a min-heap overflow for far-future
// events). Scheduling and popping are O(1), allocation-free in steady
// state, and touch only two small contiguous arrays — the design exists
// because the previous ring of 2048 independent []evRec slices put a
// cache miss on nearly every push (it was the single hottest function
// in the engine profile). A one-bit-per-bucket occupancy map finds the
// next non-empty bucket a word (64 cycles) at a time, so the idle
// cycles of a DRAM round trip cost no per-cycle probe.

// Hook observes simulation-clock advances: the engine fires it once per
// window with the window's bounds, after the window's events have
// executed, and across every AdvanceTo gap. Hooks must not schedule
// events; they are the read-only observation point used by the trace
// epoch sampler and the live metrics sampler.
type Hook interface {
	Advance(prev, now uint64)
}

// Message is one cross-shard event, emitted by a shard during a window
// and delivered to the coordinator's barrier function at the end of that
// window. Kind and the operand fields are opaque to the engine; Time,
// Src and the position in the shard's outbox (shards emit in
// nondecreasing time order) define the deterministic merge order.
type Message struct {
	Time       uint64 // sending event's cycle
	Src        int32  // sending shard
	Kind       uint8
	A, B, C, D uint64
}

// ShardHandler executes one shard's events. Implementations receive the
// owning shard so they can schedule follow-up local events (Shard.At)
// and emit cross-shard messages (Shard.Send).
type ShardHandler interface {
	// Event fires one local event at cycle t.
	Event(sh *Shard, t uint64, op uint8, a, b uint64)
}

// Partition routes model entities to shards and states the model's
// lookahead; the engine takes its shard count and window width from it.
type Partition interface {
	// Shards returns the number of state shards.
	Shards() int
	// Lookahead returns the conservative window width W in cycles: a
	// lower bound on the delay between a cross-shard message being sent
	// and its earliest effect. Must be at least 1.
	Lookahead() uint64
}

// horizonCycles is the bucket ring span. Events further out than this go
// to the overflow heap; with DRAM round-trips around 130 cycles nearly
// all traffic stays in the ring.
const horizonCycles = 2048

// occWords is the size of the bucket occupancy map, one bit per bucket.
const occWords = horizonCycles / 64

// nilIdx terminates a bucket chain.
const nilIdx = int32(-1)

// noEvent is the cached next-event time of a shard with an empty queue.
const noEvent = ^uint64(0)

// slabRec is one bucketed event record in the shared slab. Bucketed
// records carry no time (the bucket's cycle is the time) and no sequence
// number (FIFO order is the chain order), so a record is 24 bytes
// instead of the 40 the old per-bucket evRec cost.
type slabRec struct {
	a, b uint64
	next int32 // next record in the same bucket chain, nilIdx at the tail
	op   uint8
}

// evRec is one far-future event in the overflow heap, which does need
// the absolute time and an insertion sequence for its (time, seq) order.
type evRec struct {
	time uint64
	seq  uint64
	op   uint8
	a, b uint64
}

// bucketQueue is a slab-backed calendar queue: per-cycle FIFO bucket
// chains over [base, base+horizon) plus a (time, seq) min-heap for
// events beyond the horizon. The buckets themselves are flattened into
// two parallel int32 arrays (head, tail) and all records share one
// reusable slab with a LIFO freelist: pushing allocates nothing and
// re-makes nothing, it links a recycled slab slot into a chain.
//
// Invariants (audited in slabqueue_test.go against a naive reference):
//   - bit b of occ is set exactly when bucket b's chain is non-empty
//     (head[b] >= 0).
//   - base only moves forward; every queued event has time >= base, so
//     each bucket holds events of exactly one cycle at a time and the
//     membership test `t-base < horizonCycles` is safe even when base
//     approaches the top of the uint64 range (t >= base makes the
//     subtraction wrap-free).
//   - scan <= the earliest bucketed cycle, so min scans never walk
//     backwards and never alias a bucket from a later ring lap.
//   - overflow times are >= base+horizon after every advanceBase, so
//     promotions always complete before a same-cycle direct push can
//     occur, preserving FIFO-within-cycle across the two structures.
type bucketQueue struct {
	head [horizonCycles]int32
	tail [horizonCycles]int32
	occ  [occWords]uint64 // bucket occupancy, bit b%64 of word b/64
	recs []slabRec
	free []int32

	base     uint64 // all queued events have time >= base
	scan     uint64 // first cycle possibly holding a bucketed event
	count    int    // bucketed + overflow
	bucketed int
	overflow recHeap
	seq      uint64 // overflow insertion order (heap tiebreak only)
}

// init readies the flattened bucket arrays (empty = nilIdx).
func (q *bucketQueue) init() {
	for i := range q.head {
		q.head[i] = nilIdx
		q.tail[i] = nilIdx
	}
}

func (q *bucketQueue) push(t uint64, op uint8, a, b uint64) {
	if t-q.base < horizonCycles {
		q.pushBucket(t, op, a, b)
	} else {
		q.seq++
		q.overflow.push(evRec{time: t, seq: q.seq, op: op, a: a, b: b})
	}
	q.count++
}

// pushBucket links a record into the bucket chain of cycle t, recycling
// a freed slab slot when one exists.
func (q *bucketQueue) pushBucket(t uint64, op uint8, a, b uint64) {
	var idx int32
	if n := len(q.free) - 1; n >= 0 {
		idx = q.free[n]
		q.free = q.free[:n]
	} else {
		idx = int32(len(q.recs))
		q.recs = append(q.recs, slabRec{})
	}
	q.recs[idx] = slabRec{a: a, b: b, next: nilIdx, op: op}
	bkt := t % horizonCycles
	if tl := q.tail[bkt]; tl >= 0 {
		q.recs[tl].next = idx
	} else {
		q.head[bkt] = idx
		q.occ[bkt/64] |= 1 << (bkt % 64)
		if t < q.scan {
			q.scan = t
		}
	}
	q.tail[bkt] = idx
	q.bucketed++
}

// unlinkHead removes the head record of bucket b, which must be
// non-empty, and recycles its slab slot. The chain link is read here,
// so records the handler appended to the same cycle stay queued behind
// it.
func (q *bucketQueue) unlinkHead(b uint64) {
	cur := q.head[b]
	nxt := q.recs[cur].next
	q.head[b] = nxt
	if nxt < 0 {
		q.tail[b] = nilIdx
		q.occ[b/64] &^= 1 << (b % 64)
	}
	q.free = append(q.free, cur)
	q.bucketed--
	q.count--
}

// nextBucket returns the first cycle at or after c whose bucket is
// non-empty; at least one bucket must be. It is the cycle-by-cycle walk
// `for head[c%horizonCycles] < 0 { c++ }` read off the occupancy map a
// word at a time, so it finds the same cycle.
func (q *bucketQueue) nextBucket(c uint64) uint64 {
	b := c % horizonCycles
	if rest := q.occ[b/64] >> (b % 64); rest != 0 {
		return c + uint64(bits.TrailingZeros64(rest))
	}
	c += 64 - b%64 // the cycle of bit 0 of the next word
	for w := (b/64 + 1) % occWords; ; w = (w + 1) % occWords {
		if word := q.occ[w]; word != 0 {
			return c + uint64(bits.TrailingZeros64(word))
		}
		c += 64
	}
}

// minTime returns the earliest queued event time, or noEvent when the
// queue is empty. It advances the scan pointer past empty buckets as a
// side effect (safe: scan only skips cycles proven empty).
func (q *bucketQueue) minTime() uint64 {
	best := noEvent
	if q.bucketed > 0 {
		q.scan = q.nextBucket(q.scan)
		best = q.scan
	}
	if len(q.overflow) > 0 && q.overflow[0].time < best {
		best = q.overflow[0].time
	}
	return best
}

// min returns the earliest queued event time; ok is false when empty.
func (q *bucketQueue) min() (uint64, bool) {
	if q.count == 0 {
		return 0, false
	}
	return q.minTime(), true
}

// advanceBase moves the ring floor to t (all events below t must already
// be executed) and promotes overflow events that now fit the horizon, in
// (time, seq) order so FIFO-within-cycle is preserved.
func (q *bucketQueue) advanceBase(t uint64) {
	if t <= q.base {
		return
	}
	q.base = t
	if q.scan < t {
		q.scan = t
	}
	// Overflow times are >= base (events below base are already
	// executed), so the wrap-free membership test applies here too.
	for len(q.overflow) > 0 && q.overflow[0].time-q.base < horizonCycles {
		r := q.overflow.pop()
		q.pushBucket(r.time, r.op, r.a, r.b)
	}
}

// recHeap is a (time, seq) min-heap for overflow events.
type recHeap []evRec

func (h recHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *recHeap) push(r evRec) {
	*h = append(*h, r)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *recHeap) pop() evRec {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.less(l, small) {
			small = l
		}
		if r < n && s.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// Shard is one partition of simulation state: a clock, a calendar queue
// of pending local events, and an outbox of messages for the next
// barrier. During a window a shard is touched only by its own handler;
// between windows only by the coordinator.
type Shard struct {
	ID int

	handler ShardHandler
	now     uint64
	q       bucketQueue
	out     []Message
	// nextMin caches the earliest pending event time (noEvent when the
	// queue is empty). At lowers it, runWindow recomputes it, and the
	// engine's window loop reads it instead of rescanning bucket rings —
	// the basis of the adaptive frontier jump and the idle-shard skip.
	nextMin uint64
	// Processed counts events executed on this shard.
	Processed uint64
}

// Now returns the shard's current cycle.
func (s *Shard) Now() uint64 { return s.now }

// Pending reports the number of events queued on this shard.
func (s *Shard) Pending() int { return s.q.count }

// At schedules a local event at the absolute cycle t. Scheduling in the
// shard's past panics — inside a window that means before the event
// currently executing; from the coordinator it means before the window
// barrier, which would violate the lookahead contract.
func (s *Shard) At(t uint64, op uint8, a, b uint64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling shard event in the past: t=%d now=%d shard=%d op=%d a=%d b=%d", t, s.now, s.ID, op, a, b))
	}
	if t < s.nextMin {
		s.nextMin = t
	}
	s.q.push(t, op, a, b)
}

// Send emits a cross-shard message, delivered to the engine's barrier
// function at the end of the current window. The message is stamped with
// the sending event's cycle; because a shard executes events in
// nondecreasing time order, its outbox is time-sorted by construction
// and the outbox position is the within-cycle tiebreak — no per-message
// sequence number is stored.
func (s *Shard) Send(kind uint8, a, b, c, d uint64) {
	s.out = append(s.out, Message{
		Time: s.now, Src: int32(s.ID), Kind: kind,
		A: a, B: b, C: c, D: d,
	})
}

// runWindow executes this shard's events with time in [start, end),
// leaving the shard clock at end and the cached nextMin exact.
func (s *Shard) runWindow(start, end uint64) {
	q := &s.q
	if s.now < start {
		s.now = start
	}
	// start is the global minimum pending time, so no event precedes it
	// and the ring floor may advance to it, promoting any overflow events
	// that now fall within the horizon (which covers the whole window:
	// window < horizon is checked at construction).
	q.advanceBase(start)
	for q.bucketed > 0 {
		c := q.nextBucket(q.scan)
		q.scan = c
		if c >= end {
			break
		}
		s.now = c
		b := c % horizonCycles
		// Walk the bucket chain; the handler may append same-cycle
		// events, which link themselves behind the current record, so the
		// record is unlinked only after the handler has run (and the slab
		// may have been reallocated by a push — index it fresh).
		for cur := q.head[b]; cur >= 0; cur = q.head[b] {
			r := q.recs[cur]
			s.Processed++
			s.handler.Event(s, c, r.op, r.a, r.b)
			q.unlinkHead(b)
		}
	}
	s.now = end
	q.advanceBase(end)
	s.nextMin = q.minTime()
}

// ParallelEngine advances a set of shards under conservative time
// windows. Construct with NewParallelEngine, assign a handler per shard
// and a barrier function, then call Run. The engine is quiescent between
// Run calls.
type ParallelEngine struct {
	shards  []Shard
	window  uint64
	barrier func([]Message)
	hook    Hook
	wd      *Watchdog
	now     uint64

	// Window/merge statistics for perf diagnostics. Windows counts
	// [start, start+W) windows advanced; Barriers counts the subset that
	// delivered messages (the true synchronization points).
	Windows  uint64
	Barriers uint64
	Messages uint64

	merged  []Message
	senders []int32  // collect's shards that sent, reused
	slot    []uint32 // collect's per-cycle counts, then next slots: W+1

	tel             *Telemetry
	telShardFlushed []uint64 // per-shard Processed at the last shard sweep
	telMsgFlushed   uint64
	telWinFlushed   uint64
}

// NewParallelEngine builds an engine for p's shard count and lookahead.
func NewParallelEngine(p Partition) *ParallelEngine {
	n := p.Shards()
	w := p.Lookahead()
	if n <= 0 {
		panic("sim: partition must have at least one shard")
	}
	if w == 0 || w >= horizonCycles {
		panic("sim: lookahead window must be in [1, horizon)")
	}
	e := &ParallelEngine{shards: make([]Shard, n), window: w, slot: make([]uint32, w+1)}
	for i := range e.shards {
		e.shards[i].ID = i
		e.shards[i].nextMin = noEvent
		e.shards[i].q.init()
	}
	return e
}

// Shard returns shard i, for handler assignment and event insertion by
// the coordinator (only between windows).
func (e *ParallelEngine) Shard(i int) *Shard { return &e.shards[i] }

// Shards returns the shard count.
func (e *ParallelEngine) Shards() int { return len(e.shards) }

// Window returns the lookahead window width in cycles.
func (e *ParallelEngine) Window() uint64 { return e.window }

// SetHandler assigns the event handler of shard i.
func (e *ParallelEngine) SetHandler(i int, h ShardHandler) { e.shards[i].handler = h }

// SetBarrier assigns the coordinator function invoked after every window
// that produced messages, with the merged batch in (time, shard, send
// order) order. The barrier runs single-threaded and may schedule events
// on any shard via Shard.At, at cycles no earlier than the barrier time.
func (e *ParallelEngine) SetBarrier(f func([]Message)) { e.barrier = f }

// SetHook installs a clock observer, fired once per window with the
// window's bounds after the window's events have executed.
func (e *ParallelEngine) SetHook(h Hook) { e.hook = h }

// Now returns the engine clock: the end of the last completed window.
func (e *ParallelEngine) Now() uint64 { return e.now }

// Pending reports the total number of queued events across shards.
func (e *ParallelEngine) Pending() int {
	n := 0
	for i := range e.shards {
		n += e.shards[i].q.count
	}
	return n
}

// minNext returns the earliest pending event time across shards, from
// the cached per-shard minima (exact: At lowers a cache entry on every
// push and runWindow recomputes it on every execution).
func (e *ParallelEngine) minNext() (uint64, bool) {
	best := noEvent
	for i := range e.shards {
		if m := e.shards[i].nextMin; m < best {
			best = m
		}
	}
	return best, best != noEvent
}

// Run advances windows until no shard has pending events, then returns
// the engine clock. Every window starts at the earliest pending event,
// read from the cached per-shard minima, so idle gaps are jumped in one
// step instead of one lookahead at a time; and a shard with no event
// before the window end is skipped without touching its queue (its
// clock and ring floor catch up lazily on its next active window, which
// runWindow tolerates). Jumps are safe because the lookahead condition
// bounds a window's width, not its spacing. The tests hold this loop to
// a fixed-window reference driver that rescans and steps every shard.
func (e *ParallelEngine) Run() uint64 {
	for {
		start, ok := e.minNext()
		if !ok {
			if e.tel != nil {
				e.publishShards()
			}
			return e.now
		}
		if e.wd != nil && e.wd.expired(start) {
			panic(&WatchdogError{Window: e.wd.Window, LastProgress: e.wd.last,
				Now: start, Dump: e.dumpState()})
		}
		end := start + e.window
		e.Windows++
		for i := range e.shards {
			if e.shards[i].nextMin < end {
				e.shards[i].runWindow(start, end)
			}
		}
		prev := e.now
		e.now = end
		if e.hook != nil {
			e.hook.Advance(prev, end)
		}
		if msgs := e.collect(start); len(msgs) > 0 {
			e.Barriers++
			e.Messages += uint64(len(msgs))
			e.barrier(msgs)
		}
		if e.tel != nil {
			// A full per-shard sweep every telemetryWindowStride windows;
			// the cheap frontier publish covers the others.
			if e.Windows%telemetryWindowStride == 0 {
				e.publishShards()
			} else {
				e.publishWindow()
			}
		}
	}
}

// AdvanceTo moves the quiescent engine's clock (and every shard's) to t,
// firing the hook across the gap. It panics if events are pending: it
// models serial time passing between parallel sections, not event
// execution.
func (e *ParallelEngine) AdvanceTo(t uint64) {
	if e.Pending() != 0 {
		panic("sim: AdvanceTo with pending events")
	}
	if t < e.now {
		panic("sim: AdvanceTo into the past")
	}
	for i := range e.shards {
		if e.shards[i].now < t {
			e.shards[i].now = t
		}
		e.shards[i].q.advanceBase(t)
	}
	if t > e.now {
		if e.hook != nil {
			e.hook.Advance(e.now, t)
		}
		e.now = t
	}
	if e.tel != nil {
		e.publishShards()
	}
}

// collect gathers all shard outboxes into one batch in (time, shard,
// send order) order — a total order, since each outbox is positionally
// ordered — and clears the outboxes. Every message's time lies in the
// just-finished window [start, start+W) (Send stamps the sending
// event's cycle), so a counting sort on Time−start gives that order in
// O(messages + W): one pass counts each cycle's messages, a prefix sum
// turns the counts into each cycle's first slot, and a second pass
// copies every message to its cycle's next slot. Both passes visit the
// shards that sent in shard order and each outbox in send order, so the
// sort is stable and ties keep (shard, send order). Shards that sent
// nothing cost one length test. Each message is copied exactly once, at
// the window barrier, rather than per Send.
func (e *ParallelEngine) collect(start uint64) []Message {
	senders := e.senders[:0]
	slot := e.slot
	clear(slot)
	for i := range e.shards {
		out := e.shards[i].out
		if len(out) == 0 {
			continue
		}
		senders = append(senders, int32(i))
		for k := range out {
			d := out[k].Time - start
			if d >= e.window {
				panic("sim: message stamped outside its sending window")
			}
			slot[d+1]++
		}
	}
	e.senders = senders
	if len(senders) == 0 {
		return nil
	}
	for d := 1; d < len(slot); d++ {
		slot[d] += slot[d-1]
	}
	total := int(slot[len(slot)-1])
	m := slices.Grow(e.merged[:0], total)[:total]
	for _, i := range senders {
		sh := &e.shards[i]
		for k := range sh.out {
			d := sh.out[k].Time - start
			m[slot[d]] = sh.out[k]
			slot[d]++
		}
		sh.out = sh.out[:0]
	}
	e.merged = m
	return m
}
