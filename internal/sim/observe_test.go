package sim

import "testing"

// The engine publishes nothing itself. A live observer (xmt's live
// sampler) reads its plain statistics from a Hook, which fires once per
// window with every shard parked: each shard's Processed, Now() and
// Pending(), the engine's Windows and Messages, and the watchdog's
// mark. These tests hold those statistics, as a hook reads them, to the
// engine's final state, and check that observing never perturbs a run.

// chainHandler schedules a follow-up event until left events have run:
// a single-shard event chain.
type chainHandler struct {
	left int
	gap  uint64
}

func (c *chainHandler) Event(sh *Shard, t uint64, op uint8, a, b uint64) {
	c.left--
	if c.left > 0 {
		sh.At(t+c.gap, 0, 0, 0)
	}
}

// newChain builds a one-shard engine running a chain of n events gap
// cycles apart.
func newChain(n int, gap uint64) *ParallelEngine {
	e := NewParallelEngine(staticPartition{1, 4})
	e.SetHandler(0, &chainHandler{left: n, gap: gap})
	e.SetBarrier(func([]Message) {})
	e.Shard(0).At(0, 0, 0, 0)
	return e
}

// pingHandler bounces an event between shards via barrier messages and
// local follow-ups until the cycle limit.
type pingHandler struct {
	limit uint64
}

func (h *pingHandler) Event(sh *Shard, t uint64, op uint8, a, b uint64) {
	if op == 1 {
		return // local filler, no propagation
	}
	if t >= h.limit {
		return
	}
	sh.At(t+1, 1, 0, 0)
	sh.Send(0, a+1, 0, 0, 0)
}

// shardReading is one shard's statistics as a hook read them.
type shardReading struct {
	events, cycle, pending uint64
}

// observer is a Hook that reads the engine's statistics at every
// advance, the way a live sampler does, and fails t if a count or a
// clock ever goes backwards.
type observer struct {
	t        *testing.T
	e        *ParallelEngine
	advances uint64
	now      uint64
	windows  uint64
	messages uint64
	pending  uint64 // engine-wide queue depth at the last advance
	shards   []shardReading
}

func newObserver(t *testing.T, e *ParallelEngine) *observer {
	return &observer{t: t, e: e, shards: make([]shardReading, e.Shards())}
}

// Advance implements Hook.
func (o *observer) Advance(prev, now uint64) {
	if now <= prev || now < o.now {
		o.t.Errorf("hook advance %d -> %d after %d", prev, now, o.now)
	}
	o.advances++
	o.now = now
	o.windows, o.messages = o.e.Windows, o.e.Messages
	o.pending = uint64(o.e.Pending())
	for i := range o.shards {
		sh := o.e.Shard(i)
		r := shardReading{sh.Processed, sh.Now(), uint64(sh.Pending())}
		if r.events < o.shards[i].events || r.cycle < o.shards[i].cycle || r.cycle > now {
			o.t.Errorf("shard %d went from %+v to %+v at engine clock %d", i, o.shards[i], r, now)
		}
		o.shards[i] = r
	}
}

// A one-shard engine's statistics, read from its hook, give the totals,
// clock, drained queue and per-shard view that a live observer
// publishes.
func TestSerialEngineTelemetryPublishes(t *testing.T) {
	e := newChain(5000, 3)
	o := newObserver(t, e)
	e.SetHook(o)
	end := e.Run()

	processed := e.Shard(0).Processed
	if got := o.shards[0].events; got != processed || processed != 5000 {
		t.Fatalf("hook read %d events, shard processed %d, want 5000", got, processed)
	}
	if o.now != end || e.Now() != end {
		t.Fatalf("hook clock = %d, engine clock %d, want %d", o.now, e.Now(), end)
	}
	if got := o.shards[0].cycle; got != e.Shard(0).Now() {
		t.Fatalf("hook read shard clock %d, want %d", got, e.Shard(0).Now())
	}
	// Run fires the hook once per window, after counting it.
	if o.windows != e.Windows || o.advances != e.Windows {
		t.Fatalf("hook read %d windows over %d advances, want %d", o.windows, o.advances, e.Windows)
	}
	if o.pending != 0 || o.shards[0].pending != 0 || e.Pending() != 0 {
		t.Fatalf("pending = %d (shard %d, engine %d), want 0 after drain",
			o.pending, o.shards[0].pending, e.Pending())
	}
}

// The watchdog's mark and threshold, the two watchdog series, read the
// same from a hook as after the run.
func TestSerialEngineTelemetryWatchdogSeries(t *testing.T) {
	e := newChain(2000, 1)
	wd := NewWatchdog(1 << 20)
	e.SetWatchdog(wd)
	const mid = 500
	var seen uint64 // the mark as the hook last read it
	e.SetHook(hookFunc(func(prev, now uint64) {
		if prev < mid && mid <= now {
			wd.Progress(mid)
		}
		seen = wd.LastProgress()
	}))
	e.Run()
	if seen != mid || wd.LastProgress() != mid {
		t.Fatalf("watchdog last = %d (hook read %d), want %d", wd.LastProgress(), seen, mid)
	}
	if wd.Window != 1<<20 {
		t.Fatalf("watchdog window = %d", wd.Window)
	}
}

// A sharded engine's per-shard statistics, read from its hook, match
// each shard's final state and sum to the engine's totals, and a run
// with the observer attached is identical to one without.
func TestParallelEngineTelemetryPerShard(t *testing.T) {
	const shards = 4
	run := func(observe bool) (*ParallelEngine, *observer) {
		e := NewParallelEngine(staticPartition{shards, 8})
		h := &pingHandler{limit: 4000}
		for i := 0; i < shards; i++ {
			e.SetHandler(i, h)
			e.Shard(i).At(uint64(i), 0, uint64(i), 0)
		}
		e.SetBarrier(func(msgs []Message) {
			for _, m := range msgs {
				dst := (int(m.Src) + 1) % shards
				e.Shard(dst).At(m.Time+8, 0, m.A, 0)
			}
		})
		var o *observer
		if observe {
			o = newObserver(t, e)
			e.SetHook(o)
		}
		e.Run()
		return e, o
	}

	e, o := run(true)
	if e.Messages == 0 {
		t.Fatal("no cross-shard messages: the workload does not exercise the barrier")
	}
	// The last window delivers no messages (a delivered message would
	// schedule another window), so the statistics read at its hook are
	// the engine's final ones.
	if o.now != e.Now() || o.windows != e.Windows || o.messages != e.Messages {
		t.Fatalf("hook read clock %d, windows %d, messages %d; want %d, %d, %d",
			o.now, o.windows, o.messages, e.Now(), e.Windows, e.Messages)
	}
	var events, readEvents uint64
	for i := 0; i < shards; i++ {
		sh, r := e.Shard(i), o.shards[i]
		if sh.Processed == 0 {
			t.Fatalf("shard %d ran no events", i)
		}
		if r.events != sh.Processed || r.cycle != sh.Now() || r.pending != 0 {
			t.Fatalf("shard %d hook read %+v, want events %d, cycle %d, pending 0",
				i, r, sh.Processed, sh.Now())
		}
		events += sh.Processed
		readEvents += r.events
	}
	if readEvents != events || o.pending != 0 {
		t.Fatalf("hook read %d events and %d pending, want %d and 0", readEvents, o.pending, events)
	}

	// Observing must not perturb the run: the same clock, windows,
	// messages and per-shard counts with no hook attached.
	base, _ := run(false)
	if base.Now() != e.Now() || base.Windows != e.Windows || base.Messages != e.Messages {
		t.Fatalf("the observer perturbed the run: now %d vs %d, windows %d vs %d, messages %d vs %d",
			base.Now(), e.Now(), base.Windows, e.Windows, base.Messages, e.Messages)
	}
	for i := 0; i < shards; i++ {
		if base.Shard(i).Processed != e.Shard(i).Processed {
			t.Fatalf("shard %d processed differs with the observer attached", i)
		}
	}
}
