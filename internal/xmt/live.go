package xmt

// Live observability for a running machine. Where internal/trace
// records a run for post-mortem export (growing per-event state), the
// live sampler publishes a bounded set of current values into an
// internal/metrics.MachineSet so an HTTP scrape or snapshot writer can
// watch a multi-hour detailed simulation in flight.
//
// Contract (same as tracing, DESIGN.md §5): when no live sink is
// attached the machine's hot paths see only nil-guarded branches, and
// an attached sink is strictly read-only with respect to simulation
// results — cycle counts, counters and trace streams are bit-identical
// with live metrics on or off, which live_test.go asserts. The hook
// fires at window barriers where every shard is parked, so
// coordinator-side reads (snapshots, counter reductions) are race-free; publication into the MachineSet is atomic stores that a
// concurrent scraper may read at any time.

import (
	"sync/atomic"

	"xmtfft/internal/metrics"
	"xmtfft/internal/sim"
)

// liveMetrics implements sim.Hook, publishing counters and epoch
// utilization into a metrics.MachineSet.
type liveMetrics struct {
	m     *Machine
	ms    *metrics.MachineSet
	epoch uint64
	next  uint64
	st    epochState
	phase atomic.Pointer[string]
}

// Advance implements sim.Hook.
func (l *liveMetrics) Advance(prev, now uint64) {
	for l.next <= now {
		l.publish(l.next)
		l.next += l.epoch
	}
}

// publish refreshes counters and records the epoch utilization sample
// ending at cycle.
func (l *liveMetrics) publish(cycle uint64) {
	m := l.m
	// Shards are parked (hook fires at barriers / between sections), so
	// the reduction is race-free; it is a pure function of shard state,
	// leaving the spawn's own accounting untouched.
	m.reduceCounters()
	m.syncMemCounters()
	l.ms.SetCounters(m.Counters)
	l.ms.SetSample(m.utilSample(cycle, l.epoch, &l.st))
}

// AttachLiveMetrics connects a live metrics sink sampling every epoch
// cycles (nil detaches). It composes with an attached trace recorder:
// both observers hook the engine clock and see identical epochs. Like
// tracing, attaching or detaching never alters simulated timing.
func (m *Machine) AttachLiveMetrics(ms *metrics.MachineSet, epoch uint64) {
	if ms == nil {
		m.live = nil
		m.installHook()
		return
	}
	if epoch == 0 {
		epoch = 4096
	}
	m.live = &liveMetrics{
		m:     m,
		ms:    ms,
		epoch: epoch,
		st:    newEpochState(m),
		next:  (m.Now()/epoch + 1) * epoch,
	}
	m.live.publish(m.Now()) // seed the series before the first epoch tick
	m.installHook()
}

// FlushLiveMetrics forces an immediate publish of counters and the
// current utilization sample (no-op without a live sink). The harness
// calls it when a run completes so the final scrape and snapshot show
// the finished totals rather than the last epoch tick.
func (m *Machine) FlushLiveMetrics() {
	if m.live != nil {
		m.live.publish(m.Now())
	}
}

// SetTelemetry installs (or, with nil, removes) an engine-level
// telemetry sink: per-shard event counts, the simulated-cycle frontier,
// queue depths and watchdog heartbeat.
func (m *Machine) SetTelemetry(t *sim.Telemetry) { m.eng.SetTelemetry(t) }

// CurrentPhase returns the label of the most recent Section while a
// live sink is attached ("" otherwise). Safe to call concurrently with
// the simulation — the /progress endpoint reads it from the scrape
// goroutine.
func (m *Machine) CurrentPhase() string {
	if m.live == nil {
		return ""
	}
	if p := m.live.phase.Load(); p != nil {
		return *p
	}
	return ""
}

// hookChain fans one engine clock advance out to both observers, in a
// fixed order (trace sampler first) so runs are reproducible.
type hookChain struct {
	a, b sim.Hook
}

// Advance implements sim.Hook.
func (h hookChain) Advance(prev, now uint64) {
	h.a.Advance(prev, now)
	h.b.Advance(prev, now)
}

// installHook wires the composed observer hook (trace epoch sampler
// and/or live metrics sampler) into the engine. A single nil hook
// branch remains when neither is attached.
func (m *Machine) installHook() {
	var h sim.Hook
	switch {
	case m.sampler != nil && m.live != nil:
		h = hookChain{a: m.sampler, b: m.live}
	case m.sampler != nil:
		h = m.sampler
	case m.live != nil:
		h = m.live
	}
	m.eng.SetHook(h)
}
