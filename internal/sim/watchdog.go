package sim

import (
	"fmt"
	"strings"
)

// Watchdog detects no-progress windows (livelock) in a simulation: the
// model marks forward progress (Progress) at semantically meaningful
// points — thread completions, load-group completions, section starts —
// and the engine aborts when simulated time runs more than Window
// cycles past the last mark. The canonical livelock this catches is a
// NoC retransmit storm: events keep firing (so the queue never drains)
// but no thread ever completes, and without the watchdog the process
// would spin forever.
//
// The abort is a typed panic carrying a *WatchdogError with a dump of
// engine queue state; xmt.Machine.Spawn recovers it and returns it as
// an ordinary error. A watchdog never fires while progress marks keep
// arriving, and checking it costs one nil-guarded compare per window,
// so an installed but untriggered watchdog cannot change a run's cycle
// counts.
type Watchdog struct {
	// Window is the abort threshold: the maximum simulated-cycle gap
	// allowed between a progress mark and the next event or window.
	Window uint64

	last uint64
}

// NewWatchdog returns a watchdog with the given no-progress window.
func NewWatchdog(window uint64) *Watchdog {
	return &Watchdog{Window: window}
}

// Progress records forward progress at the given cycle. Calls are
// monotonic-max: marking an earlier cycle than the latest is a no-op.
// Not safe for concurrent use — call only from the goroutine running
// the engine (the barrier function, a hook, or shard events).
func (w *Watchdog) Progress(cycle uint64) {
	if cycle > w.last {
		w.last = cycle
	}
}

// LastProgress returns the cycle of the latest progress mark.
func (w *Watchdog) LastProgress() uint64 { return w.last }

// expired reports whether executing at cycle t would exceed the
// no-progress window.
func (w *Watchdog) expired(t uint64) bool {
	return t > w.last+w.Window
}

// WatchdogError reports a detected livelock: the simulation reached
// Now with no progress mark since LastProgress, exceeding Window.
// Dump holds a diagnostic snapshot of engine queue state at abort.
type WatchdogError struct {
	Window       uint64
	LastProgress uint64
	Now          uint64
	Dump         string
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog: no progress for %d cycles (last progress at cycle %d, now %d, window %d)\n%s",
		e.Now-e.LastProgress, e.LastProgress, e.Now, e.Window, e.Dump)
}

// SetWatchdog installs (or, with nil, removes) a livelock watchdog; it
// is checked once per window in Run.
func (e *ParallelEngine) SetWatchdog(w *Watchdog) { e.wd = w }

// dumpState renders per-shard queue state for a watchdog abort: each
// shard's clock, executed-event count, pending-event count and earliest
// pending time, plus engine window/message totals — the view needed to
// see which shard a retransmit storm is circling through.
func (e *ParallelEngine) dumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "parallel engine: now=%d windows=%d messages=%d window=%d\n",
		e.now, e.Windows, e.Messages, e.window)
	for i := range e.shards {
		sh := &e.shards[i]
		fmt.Fprintf(&b, "  shard %d: now=%d processed=%d pending=%d outbox=%d",
			sh.ID, sh.now, sh.Processed, sh.Pending(), len(sh.out))
		if t := sh.q.min(); t != noEvent {
			fmt.Fprintf(&b, " next=%d", t)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
