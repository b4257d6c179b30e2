package xmt

// Live observability for a running machine. Where internal/trace
// records a run for post-mortem export (growing per-event state), the
// live sampler publishes a bounded set of current values into a
// MetricSet so an HTTP scrape or snapshot writer can watch a
// multi-hour detailed simulation in flight. It is the only code that
// publishes a running simulation: the engine keeps plain statistics and
// the sampler mirrors them with the machine's own tallies.
//
// Contract (same as tracing, DESIGN.md §5): when no live sink is
// attached the machine's hot paths see only nil-guarded branches, and
// an attached sink is strictly read-only with respect to simulation
// results — cycle counts, counters and trace streams are bit-identical
// with live metrics on or off, which live_test.go asserts. The hook
// fires at window barriers where every shard is parked, so
// coordinator-side reads (snapshots, counter reductions, engine
// statistics) are race-free; publication into the MetricSet is atomic
// stores that a concurrent scraper may read at any time.

import (
	"strconv"
	"sync/atomic"
	"time"

	"xmtfft/internal/metrics"
	"xmtfft/internal/sim"
	"xmtfft/internal/stats"
	"xmtfft/internal/trace"
)

// MetricSet is the fixed family of series one simulated machine (or a
// sequence of machines in an ablation sweep) publishes: its cumulative
// operation and fault tallies as counters, its latest epoch
// utilization sample as gauges, and its engine's state (EngineSample).
// Handles are resolved once: the machine-wide ones at construction,
// the per-shard ones when a machine attaches. The machine keeps owning
// its tallies; Counter.Set mirrors them, so every counter reads the
// attached machine's own count and a scrape sees ordinary counter-reset
// semantics when a fresh machine attaches.
type MetricSet struct {
	counters []counterOf
	gauges   []gaugeOf

	events, windows, messages         *metrics.Counter
	cycle, pending, wdCycle, wdWindow *metrics.Gauge
	shardEvents                       *metrics.CounterVec
	shardCycle, shardPending          *metrics.GaugeVec
	// shards holds the last attached machine's per-shard handles, for
	// Engine.
	shards atomic.Pointer[[]shardSeries]
	// published is the wall-clock time (UnixNano) of the last publish,
	// the heartbeat; 0 before the first.
	published atomic.Int64
}

// shardSeries is one engine shard's handles.
type shardSeries struct {
	events         *metrics.Counter
	cycle, pending *metrics.Gauge
}

// EngineSample is the engine state one live publish mirrors: the
// attached machine's own engine tallies, its clock and queue depth, its
// watchdog and each shard's share.
type EngineSample struct {
	Cycle    uint64 // engine clock
	Pending  uint64 // events queued across the shards
	Events   uint64 // events executed
	Windows  uint64 // conservative windows advanced
	Messages uint64 // cross-shard messages merged
	// WatchdogCycle is the watchdog's latest progress mark and
	// WatchdogWindow its abort threshold; both 0 without a watchdog.
	WatchdogCycle, WatchdogWindow uint64

	Shards []ShardSample // in shard order
}

// ShardSample is one engine shard's part of an EngineSample.
type ShardSample struct {
	Events  uint64 // events executed on the shard
	Cycle   uint64 // shard clock
	Pending uint64 // events queued on the shard
}

// counterOf mirrors one field of stats.Counters into a counter.
type counterOf struct {
	c     *metrics.Counter
	field func(*stats.Counters) uint64
}

// gaugeOf mirrors one field of the latest trace.Sample into a gauge.
type gaugeOf struct {
	g     *metrics.Gauge
	field func(*trace.Sample) float64
}

// NewMetricSet registers the machine's series on reg and returns their
// handles. Call once per registry; duplicate registration panics.
func NewMetricSet(reg *metrics.Registry) *MetricSet {
	ops := reg.CounterVec("xmtfft_ops", "Operations executed by the simulated machine, by kind.", "kind")
	faults := reg.CounterVec("xmtfft_faults", "Injected-fault events observed by the resilience layer, by kind.", "kind")
	return &MetricSet{
		events:   reg.Counter("xmtfft_sim_events", "Discrete events executed by the attached machine's engine."),
		windows:  reg.Counter("xmtfft_sim_windows", "Conservative time windows completed by the sharded engine."),
		messages: reg.Counter("xmtfft_sim_messages", "Cross-shard messages merged by the sharded engine."),
		cycle:    reg.Gauge("xmtfft_sim_cycle", "Simulated-cycle frontier of the attached engine."),
		pending:  reg.Gauge("xmtfft_sim_pending_events", "Events queued in the attached engine at last publish."),
		wdCycle:  reg.Gauge("xmtfft_watchdog_last_progress_cycle", "Cycle of the watchdog's latest progress mark (0 without a watchdog)."),
		wdWindow: reg.Gauge("xmtfft_watchdog_window_cycles", "Watchdog abort threshold in cycles (0 without a watchdog)."),

		shardEvents:  reg.CounterVec("xmtfft_sim_shard_events", "Events executed per engine shard.", "shard"),
		shardCycle:   reg.GaugeVec("xmtfft_sim_shard_cycle", "Per-shard clock at last publish.", "shard"),
		shardPending: reg.GaugeVec("xmtfft_sim_shard_pending_events", "Per-shard queued events at last publish.", "shard"),

		counters: []counterOf{
			{ops.With("fp"), func(c *stats.Counters) uint64 { return c.FPOps }},
			{ops.With("alu"), func(c *stats.Counters) uint64 { return c.ALUOps }},
			{ops.With("load"), func(c *stats.Counters) uint64 { return c.Loads }},
			{ops.With("store"), func(c *stats.Counters) uint64 { return c.Stores }},
			{ops.With("ps"), func(c *stats.Counters) uint64 { return c.PSOps }},
			{faults.With("noc_dropped"), func(c *stats.Counters) uint64 { return c.NoCDropped }},
			{faults.With("noc_corrupted"), func(c *stats.Counters) uint64 { return c.NoCCorrupted }},
			{faults.With("noc_retransmit"), func(c *stats.Counters) uint64 { return c.NoCRetransmits }},
			{faults.With("ecc_corrected"), func(c *stats.Counters) uint64 { return c.ECCCorrected }},
			{faults.With("ecc_uncorrectable"), func(c *stats.Counters) uint64 { return c.ECCUncorrectable }},
			{faults.With("silent"), func(c *stats.Counters) uint64 { return c.SilentFaults }},
			{reg.Counter("xmtfft_threads", "Virtual threads executed."),
				func(c *stats.Counters) uint64 { return c.Threads }},
			{reg.Counter("xmtfft_spawns", "Spawn/join regions entered."),
				func(c *stats.Counters) uint64 { return c.Spawns }},
			{reg.Counter("xmtfft_cache_hits", "Shared-cache hits."),
				func(c *stats.Counters) uint64 { return c.CacheHits }},
			{reg.Counter("xmtfft_cache_misses", "Shared-cache misses."),
				func(c *stats.Counters) uint64 { return c.CacheMisses }},
			{reg.Counter("xmtfft_dram_bytes", "Bytes transferred on DRAM channels."),
				func(c *stats.Counters) uint64 { return c.DRAMBytes }},
			{reg.Counter("xmtfft_noc_packets", "Packets injected into the interconnect."),
				func(c *stats.Counters) uint64 { return c.NoCPackets }},
			{reg.Counter("xmtfft_prefetches", "Cache lines fetched speculatively."),
				func(c *stats.Counters) uint64 { return c.Prefetches }},
			{reg.Counter("xmtfft_dram_row_hits", "DRAM accesses hitting an open row buffer."),
				func(c *stats.Counters) uint64 { return c.RowHits }},
			{reg.Counter("xmtfft_dram_row_misses", "DRAM accesses that had to open a row."),
				func(c *stats.Counters) uint64 { return c.RowMisses }},
		},
		gauges: []gaugeOf{
			{reg.Gauge("xmtfft_util_fpu", "FPU utilization over the last sampled epoch (0..1)."),
				func(s *trace.Sample) float64 { return s.FPU }},
			{reg.Gauge("xmtfft_util_lsu", "LSU utilization over the last sampled epoch (0..1)."),
				func(s *trace.Sample) float64 { return s.LSU }},
			{reg.Gauge("xmtfft_util_dram", "DRAM-channel utilization over the last sampled epoch (0..1)."),
				func(s *trace.Sample) float64 { return s.DRAM }},
			{reg.Gauge("xmtfft_cache_hit_rate", "Cache hit fraction over the last sampled epoch (0..1)."),
				func(s *trace.Sample) float64 { return s.HitRate }},
			{reg.Gauge("xmtfft_outstanding_threads", "Threads live or not yet allocated in the active parallel section."),
				func(s *trace.Sample) float64 { return float64(s.Outstanding) }},
			{reg.Gauge("xmtfft_sample_cycle", "Simulated cycle of the last utilization sample."),
				func(s *trace.Sample) float64 { return float64(s.Cycle) }},
			{reg.Gauge("xmtfft_epoch_noc_packets", "NoC packets injected during the last sampled epoch."),
				func(s *trace.Sample) float64 { return float64(s.NoCPackets) }},
		},
	}
}

// attach resolves and returns the per-shard handles of an n-shard
// machine, which Engine reads from then on.
func (s *MetricSet) attach(n int) []shardSeries {
	hs := make([]shardSeries, n)
	for i := range hs {
		lbl := strconv.Itoa(i)
		hs[i] = shardSeries{s.shardEvents.With(lbl), s.shardCycle.With(lbl), s.shardPending.With(lbl)}
	}
	s.shards.Store(&hs)
	return hs
}

// set publishes the machine's cumulative tallies (the fault-injection
// tallies ride on stats.Counters), one epoch utilization sample (the
// same values internal/trace records for post-mortem export) and the
// engine state, whose Shards go to the machine's handles hs, and stamps
// the heartbeat.
func (s *MetricSet) set(c *stats.Counters, sm *trace.Sample, e *EngineSample, hs []shardSeries) {
	for _, t := range s.counters {
		t.c.Set(t.field(c))
	}
	for _, g := range s.gauges {
		g.g.Set(g.field(sm))
	}
	s.events.Set(e.Events)
	s.windows.Set(e.Windows)
	s.messages.Set(e.Messages)
	s.cycle.SetUint(e.Cycle)
	s.pending.SetUint(e.Pending)
	s.wdCycle.SetUint(e.WatchdogCycle)
	s.wdWindow.SetUint(e.WatchdogWindow)
	for i, h := range hs {
		sh := &e.Shards[i]
		h.events.Set(sh.Events)
		h.cycle.SetUint(sh.Cycle)
		h.pending.SetUint(sh.Pending)
	}
	s.published.Store(time.Now().UnixNano())
}

// Engine reads the engine state of the last publish back from the
// series, with the wall-clock time of that publish (zero before the
// first), the heartbeat a scraper ages. Safe to call concurrently with
// the simulation.
func (s *MetricSet) Engine() (EngineSample, time.Time) {
	e := EngineSample{
		Cycle:          uint64(s.cycle.Value()),
		Pending:        uint64(s.pending.Value()),
		Events:         s.events.Value(),
		Windows:        s.windows.Value(),
		Messages:       s.messages.Value(),
		WatchdogCycle:  uint64(s.wdCycle.Value()),
		WatchdogWindow: uint64(s.wdWindow.Value()),
	}
	if hs := s.shards.Load(); hs != nil {
		e.Shards = make([]ShardSample, len(*hs))
		for i, h := range *hs {
			e.Shards[i] = ShardSample{h.events.Value(), uint64(h.cycle.Value()), uint64(h.pending.Value())}
		}
	}
	var at time.Time
	if ns := s.published.Load(); ns != 0 {
		at = time.Unix(0, ns)
	}
	return e, at
}

// liveMetrics implements sim.Hook, publishing counters, epoch
// utilization and engine state into a MetricSet.
type liveMetrics struct {
	m      *Machine
	ms     *MetricSet
	shards []shardSeries // the machine's per-shard handles
	epoch  uint64
	next   uint64
	st     epochState
	eng    EngineSample // reused by every publish
	phase  atomic.Pointer[string]
}

// Advance implements sim.Hook.
func (l *liveMetrics) Advance(prev, now uint64) {
	for l.next <= now {
		l.publish(l.next, now)
		l.next += l.epoch
	}
}

// publish refreshes counters and the engine state at engine clock now,
// and records the epoch utilization sample ending at cycle.
func (l *liveMetrics) publish(cycle, now uint64) {
	m := l.m
	// Shards are parked (hook fires at barriers / between sections), so
	// the reduction is race-free; it is a pure function of shard state,
	// leaving the spawn's own accounting untouched.
	m.reduceCounters()
	m.syncMemCounters()
	sm := m.utilSample(cycle, l.epoch, &l.st)
	m.engineSample(now, &l.eng)
	l.ms.set(&m.Counters, &sm, &l.eng, l.shards)
}

// engineSample fills e with the engine's own statistics at clock now,
// reusing e.Shards.
func (m *Machine) engineSample(now uint64, e *EngineSample) {
	*e = EngineSample{Cycle: now, Windows: m.eng.Windows, Messages: m.eng.Messages, Shards: e.Shards[:0]}
	for i := range m.eng.Shards() {
		sh := m.eng.Shard(i)
		s := ShardSample{Events: sh.Processed, Cycle: sh.Now(), Pending: uint64(sh.Pending())}
		e.Events += s.Events
		e.Pending += s.Pending
		e.Shards = append(e.Shards, s)
	}
	if m.wd != nil {
		e.WatchdogCycle, e.WatchdogWindow = m.wd.LastProgress(), m.wd.Window
	}
}

// AttachLiveMetrics connects a live metrics sink sampling every epoch
// cycles (nil detaches). It composes with an attached trace recorder:
// both observers hook the engine clock and see identical epochs. Like
// tracing, attaching or detaching never alters simulated timing.
func (m *Machine) AttachLiveMetrics(ms *MetricSet, epoch uint64) {
	if ms == nil {
		m.live = nil
		m.installHook()
		return
	}
	if epoch == 0 {
		epoch = 4096
	}
	m.live = &liveMetrics{
		m:      m,
		ms:     ms,
		shards: ms.attach(m.eng.Shards()),
		epoch:  epoch,
		st:     newEpochState(m),
		next:   (m.Now()/epoch + 1) * epoch,
	}
	m.live.publish(m.Now(), m.Now()) // seed the series before the first epoch tick
	m.installHook()
}

// FlushLiveMetrics forces an immediate publish of counters, engine
// state and the current utilization sample (no-op without a live
// sink). The harness calls it when a run completes so the final scrape
// and snapshot show the finished totals rather than the last epoch
// tick.
func (m *Machine) FlushLiveMetrics() {
	if m.live != nil {
		m.live.publish(m.Now(), m.Now())
	}
}

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
