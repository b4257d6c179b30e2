package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Telemetry is the engine's live publication surface: a set of atomic
// counters a concurrent observer (the harness's /metrics HTTP server)
// may read at any time while the simulation runs. It deliberately knows
// nothing about metric names or exposition formats — internal/harness
// bridges it onto an internal/metrics registry.
//
// The contract mirrors tracing's zero-overhead-when-off guarantee
// (DESIGN.md §5): a nil telemetry sink costs the engine one predictable
// branch per window, and an installed sink is write-only from the
// engine side — it can never change event order, cycle counts, or
// statistics. The engine publishes at window barriers, on the goroutine
// that runs it; observers read only the atomics.
//
// Counters (Events, Windows, Messages, per-shard Events) are deltas
// accumulated with Add, so one Telemetry can be shared across a
// sequence of engines — an ablation sweep builds a fresh machine per
// variant and the totals keep rising monotonically. Frontier values
// (Cycle, Pending, per-shard Cycle/Pending) are Store'd snapshots of
// the currently attached engine.
type Telemetry struct {
	Cycle    atomic.Uint64 // simulated-cycle frontier of the attached engine
	Events   atomic.Uint64 // events executed (cumulative across engines)
	Pending  atomic.Uint64 // events currently queued
	Windows  atomic.Uint64 // parallel windows completed (cumulative)
	Messages atomic.Uint64 // cross-shard messages merged (cumulative)

	// WatchdogLast is the cycle of the latest watchdog progress mark;
	// WatchdogWindow its abort threshold. Both zero when no watchdog is
	// installed on the publishing engine.
	WatchdogLast   atomic.Uint64
	WatchdogWindow atomic.Uint64

	// lastPublish is the wall-clock time (UnixNano) of the most recent
	// engine publish — the liveness heartbeat. A scraper computes the
	// heartbeat age to tell "simulator wedged" from "simulator slow".
	lastPublish atomic.Int64

	mu     sync.Mutex
	shards atomic.Pointer[[]*ShardTelemetry]
}

// ShardTelemetry is one shard's live counters.
type ShardTelemetry struct {
	Cycle   atomic.Uint64 // shard clock at last publish
	Events  atomic.Uint64 // events executed on this shard (cumulative)
	Pending atomic.Uint64 // events queued on this shard at last publish
}

// telemetryWindowStride is the engine's full-shard-sweep stride in
// windows; the cheap frontier counters publish every window.
const telemetryWindowStride = 16

// EnsureShards grows the per-shard slice to at least n entries,
// preserving existing entries (and their accumulated counts), and
// returns the slice. Safe to call concurrently with readers.
func (t *Telemetry) EnsureShards(n int) []*ShardTelemetry {
	if cur := t.shards.Load(); cur != nil && len(*cur) >= n {
		return *cur
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.shards.Load()
	if cur != nil && len(*cur) >= n {
		return *cur
	}
	var old []*ShardTelemetry
	if cur != nil {
		old = *cur
	}
	next := make([]*ShardTelemetry, n)
	copy(next, old)
	for i := len(old); i < n; i++ {
		next[i] = &ShardTelemetry{}
	}
	t.shards.Store(&next)
	return next
}

// ShardView returns the current per-shard telemetry entries (possibly
// nil before any engine attached). The slice is immutable; entries are
// read with their atomic loads.
func (t *Telemetry) ShardView() []*ShardTelemetry {
	if p := t.shards.Load(); p != nil {
		return *p
	}
	return nil
}

// Beat stamps the liveness heartbeat; engines call it on every publish.
func (t *Telemetry) Beat() { t.lastPublish.Store(time.Now().UnixNano()) }

// HeartbeatAge returns the wall-clock time since the last engine
// publish, and false if nothing has published yet.
func (t *Telemetry) HeartbeatAge(now time.Time) (time.Duration, bool) {
	ns := t.lastPublish.Load()
	if ns == 0 {
		return 0, false
	}
	return now.Sub(time.Unix(0, ns)), true
}

// SetTelemetry installs (or removes) a live telemetry sink on the
// engine: cheap frontier counters publish at every window
// barrier, a full per-shard sweep every telemetryWindowStride windows
// and when Run returns.
func (e *ParallelEngine) SetTelemetry(t *Telemetry) {
	e.tel = t
	if t == nil {
		e.telShardFlushed = nil
		return
	}
	t.EnsureShards(len(e.shards))
	if e.telShardFlushed == nil {
		e.telShardFlushed = make([]uint64, len(e.shards))
		for i := range e.shards {
			e.telShardFlushed[i] = e.shards[i].Processed
		}
	}
	e.telMsgFlushed = e.Messages
	e.telWinFlushed = e.Windows
	e.publishShards()
}

// publishWindow flushes the cheap per-window counters.
func (e *ParallelEngine) publishWindow() {
	t := e.tel
	t.Cycle.Store(e.now)
	t.Windows.Add(e.Windows - e.telWinFlushed)
	e.telWinFlushed = e.Windows
	t.Messages.Add(e.Messages - e.telMsgFlushed)
	e.telMsgFlushed = e.Messages
	if e.wd != nil {
		t.WatchdogLast.Store(e.wd.last)
		t.WatchdogWindow.Store(e.wd.Window)
	}
	t.Beat()
}

// publishShards additionally sweeps per-shard counters and the total
// event/pending tallies.
func (e *ParallelEngine) publishShards() {
	t := e.tel
	view := t.ShardView()
	var events, pending uint64
	for i := range e.shards {
		sh := &e.shards[i]
		st := view[i]
		delta := sh.Processed - e.telShardFlushed[i]
		e.telShardFlushed[i] = sh.Processed
		events += delta
		pending += uint64(sh.q.count)
		st.Events.Add(delta)
		st.Cycle.Store(sh.now)
		st.Pending.Store(uint64(sh.q.count))
	}
	t.Events.Add(events)
	t.Pending.Store(pending)
	e.publishWindow()
}
