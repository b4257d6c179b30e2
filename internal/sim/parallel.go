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
// Per-shard pending events live in one binary min-heap keyed by (cycle,
// push sequence), so events of one cycle fire in the order they were
// scheduled. On the XMT machine a thread has one pending event (its
// start or its next resume), or none while the coordinator serves its
// loads, so a shard's heap stays about one record per TCU deep (at most
// 32 on sim-64k-dram's machine): a few 32-byte records that stay in the
// host's L1 cache, where an earlier per-cycle calendar ring of 2,048
// buckets per shard missed on nearly every push (DESIGN.md §7).

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

// maxLookahead bounds the window width: the barrier merge keeps one
// counter per cycle of a window, and window ends must not overflow.
const maxLookahead = 1 << 16

// noEvent is the cached next-event time of a shard with an empty queue.
const noEvent = ^uint64(0)

// event is one pending shard event. key is the shard's push count
// shifted left by 8 with the opcode in the low byte, so (time, key)
// orders events by cycle and then by scheduling order in one 32-byte
// record.
type event struct {
	time, key uint64
	a, b      uint64
}

// before reports whether e fires before f.
func (e *event) before(f *event) bool {
	return e.time < f.time || e.time == f.time && e.key < f.key
}

// eventHeap is a shard's pending events, a binary min-heap on (time,
// key). Push and pop are O(log n) in the shard's pending count and
// allocation-free once the slice has grown to the shard's peak.
type eventHeap struct {
	ev  []event
	seq uint64 // pushes so far, the key's high 56 bits
}

func (h *eventHeap) push(t uint64, op uint8, a, b uint64) {
	h.seq++
	e := event{time: t, key: h.seq<<8 | uint64(op), a: a, b: b}
	h.ev = append(h.ev, e)
	s := h.ev
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

// pop removes and returns the earliest event; the heap must not be
// empty.
func (h *eventHeap) pop() event {
	s := h.ev
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	h.ev = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(&s[c]) {
			c = r
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}

// min returns the earliest pending event time, or noEvent when the heap
// is empty.
func (h *eventHeap) min() uint64 {
	if len(h.ev) == 0 {
		return noEvent
	}
	return h.ev[0].time
}

// Shard is one partition of simulation state: a clock, a heap of
// pending local events, and an outbox of messages for the next
// barrier. During a window a shard is touched only by its own handler;
// between windows only by the coordinator.
type Shard struct {
	ID int

	handler ShardHandler
	now     uint64
	q       eventHeap
	out     []Message
	// nextMin caches the earliest pending event time (noEvent when the
	// queue is empty). At lowers it, runWindow recomputes it, and the
	// engine's window loop reads it instead of visiting every heap — the
	// basis of the adaptive frontier jump and the idle-shard skip.
	nextMin uint64
	// Processed counts events executed on this shard.
	Processed uint64
}

// Now returns the shard's current cycle.
func (s *Shard) Now() uint64 { return s.now }

// Pending reports the number of events queued on this shard.
func (s *Shard) Pending() int { return len(s.q.ev) }

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
// leaving the shard clock at end and the cached nextMin exact. An event
// the handler schedules inside the window, even at the current cycle,
// runs in this window after the events already queued for its cycle.
func (s *Shard) runWindow(start, end uint64) {
	q := &s.q
	if s.now < start {
		s.now = start
	}
	for len(q.ev) > 0 && q.ev[0].time < end {
		e := q.pop()
		s.now = e.time
		s.Processed++
		s.handler.Event(s, e.time, uint8(e.key), e.a, e.b)
	}
	s.now = end
	s.nextMin = q.min()
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
}

// NewParallelEngine builds an engine for p's shard count and lookahead.
func NewParallelEngine(p Partition) *ParallelEngine {
	n := p.Shards()
	w := p.Lookahead()
	if n <= 0 {
		panic("sim: partition must have at least one shard")
	}
	if w == 0 || w > maxLookahead {
		panic(fmt.Sprintf("sim: lookahead window %d outside [1, %d]", w, maxLookahead))
	}
	e := &ParallelEngine{shards: make([]Shard, n), window: w, slot: make([]uint32, w+1)}
	for i := range e.shards {
		e.shards[i].ID = i
		e.shards[i].nextMin = noEvent
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
		n += e.shards[i].Pending()
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
// clock catches up lazily on its next active window, which runWindow
// tolerates). Jumps are safe because the lookahead condition
// bounds a window's width, not its spacing. The tests hold this loop to
// a fixed-window reference driver that rescans and steps every shard.
func (e *ParallelEngine) Run() uint64 {
	for {
		start, ok := e.minNext()
		if !ok {
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
	}
	if t > e.now {
		if e.hook != nil {
			e.hook.Advance(e.now, t)
		}
		e.now = t
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
