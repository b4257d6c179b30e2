// Package xmt simulates the Explicit Multi-Threading (XMT) many-core
// architecture of §II-A: a master thread control unit (MTCU) that
// broadcasts parallel sections to clusters of lightweight thread control
// units (TCUs), a prefix-sum unit providing constant-time dynamic thread
// allocation (the no-busy-wait FSM scheme), shared functional units and
// one load/store port per cluster, an interconnection network (internal/
// noc) and hashed shared memory modules (internal/mem).
//
// The simulator is timing-directed and event-driven: workloads submit
// micro-op streams (see Op) whose shared-memory addresses are real, so
// cache, DRAM-channel and NoC contention emerge from the access pattern
// rather than from assumed rates.
package xmt

import (
	"fmt"

	"xmtfft/internal/config"
	"xmtfft/internal/mem"
	"xmtfft/internal/noc"
	"xmtfft/internal/sim"
	"xmtfft/internal/stats"
	"xmtfft/internal/trace"
)

// Timing constants (cycles); calibration parameters documented in
// DESIGN.md §5.
const (
	// SpawnBroadcastLatency covers the MTCU's broadcast of a parallel
	// section to all TCU clusters; XMT starts all TCUs in the time it
	// takes to start one (§II-A).
	SpawnBroadcastLatency = 24
	// JoinLatency covers TCUs reporting completion and the MTCU
	// resuming serial mode.
	JoinLatency = 24
	// PSLatency is the round-trip latency of a prefix-sum operation;
	// the PS unit combines concurrent requests, so throughput is
	// unbounded (the defining XMT primitive).
	PSLatency = 12
	// FPULatency is the floating-point pipeline depth added to a
	// thread's FLOP segment on top of throughput-limited issue.
	FPULatency = 4
	// ThreadStartOverhead is the per-thread cost of receiving a thread
	// id and branching to the body.
	ThreadStartOverhead = 2
)

// Machine is one configured XMT processor. It simulates on the sharded
// engine (sim.ParallelEngine) with one shard per cluster: the shards
// run the TCUs and their cluster-local ports, and the coordinator (the
// engine's barrier function) serves the NoC, the memory system and the
// prefix-sum unit. See parallel.go and DESIGN.md §7.
type Machine struct {
	cfg     config.Config
	memory  *mem.System
	network noc.Network

	eng    *sim.ParallelEngine
	shards []*machineShard
	// tcuShard/tcuLocal map a global TCU id to its owning shard and
	// local index without the div/mod pair tcuOf used to pay on every
	// barrier message (the divisor is not a compile-time constant, so
	// the hardware division showed up in the merge-path profile).
	tcuShard []int32
	tcuLocal []int32
	now      uint64 // machine clock: the end of the last section or serial gap
	psOps    uint64 // cumulative thread re-allocation prefix-sums

	// Counters accumulates operation counts across all parallel sections
	// run on this machine. The shard-local tallies are reduced into it at
	// spawn boundaries (reduceCounters), and memory-system and NoC
	// counters (DRAMBytes, NoCPackets, Prefetches, RowHits, RowMisses)
	// are synchronized from their owning subsystems — the subsystem is
	// the single source of truth.
	Counters stats.Counters

	// Tracing state: rec is nil unless a recorder is attached; every
	// emission site is guarded by a nil check so the disabled path costs
	// one predictable branch (DESIGN.md §5). live follows the same
	// contract for the observability layer (see live.go); both observers
	// share the engine's clock hook via installHook. coordRec collects
	// the coordinator's trace events (NoC traversals and memory accesses)
	// during a traced spawn; it is merged with the shard recorders at the
	// join.
	rec          *trace.Recorder
	coordRec     *trace.Recorder
	sampler      *epochSampler
	live         *liveMetrics
	pendingLabel string

	// spawn-in-progress state
	prog        Program
	totalTh     int
	nextTh      int
	outstanding int
	// runs is set for a spawn that folds same-line words into runs (see
	// memReq): every untraced spawn without NoC fault injection. Traced
	// spawns send every word on its own, so each has its own trace
	// events, and so do NoC-fault spawns, where every packet draws its
	// own fate. The closed forms that serve a run's followers give every
	// simulated quantity per-word service gives, so runs change no result.
	runs bool
	// perWord turns run formation off for a test's per-word reference
	// (export_test.go).
	perWord bool

	// retries holds escalated (give-up) memory requests awaiting their
	// sopRetransmit events. Appended only by the coordinator between
	// windows and read by shard events during windows, so the engine's
	// barrier ordering is the only synchronization needed.
	retries []retryRec

	// Resilience state (see fault.go): rnet is non-nil when NoC fault
	// injection wraps the network (m.network aliases it), wd is the
	// installed livelock watchdog, dead marks fail-stopped clusters (nil
	// until the first kill). All nil/zero by default so the fault-free
	// path costs only nil-guarded branches.
	rnet *noc.Reliable
	wd   *sim.Watchdog
	dead []bool

	// onWatchdog, when non-nil, receives the *sim.WatchdogError as a
	// watchdog abort unwinds, before Spawn returns it — the post-mortem
	// hook (see OnWatchdog in fault.go).
	onWatchdog func(*sim.WatchdogError)
}

// New builds a machine for cfg with a fresh memory system and network.
func New(cfg config.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	memory, err := mem.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	network, err := noc.New(cfg)
	if err != nil {
		return nil, err
	}
	// The lookahead window is the minimum delay between a cross-shard
	// message and its earliest effect: requests and replies cross the
	// NoC (>= one-way latency), thread re-allocation crosses the
	// prefix-sum unit (PSLatency).
	window := network.Latency()
	if window > PSLatency {
		window = PSLatency
	}
	if window == 0 {
		return nil, fmt.Errorf("xmt: configuration %q has zero NoC latency", cfg.Name)
	}
	m := &Machine{cfg: cfg, memory: memory, network: network}
	m.eng = sim.NewParallelEngine(clusterPartition{shards: cfg.Clusters, window: window})
	m.eng.SetBarrier(m.onBarrier)
	m.shards = make([]*machineShard, cfg.Clusters)
	for i := range m.shards {
		sh := &machineShard{
			m:    m,
			id:   i,
			fpu:  sim.Port{Width: uint64(cfg.FPUsPerCluster)},
			lsu:  sim.Port{Width: uint64(cfg.LSUsPerCluster)},
			tcus: make([]shardTCU, cfg.TCUsPerCluster),
		}
		for j := range sh.tcus {
			sh.tcus[j].id = i*cfg.TCUsPerCluster + j
			sh.tcus[j].local = j
		}
		m.shards[i] = sh
		m.eng.SetHandler(i, sh)
	}
	m.tcuShard = make([]int32, cfg.TCUs)
	m.tcuLocal = make([]int32, cfg.TCUs)
	for t := 0; t < cfg.TCUs; t++ {
		m.tcuShard[t] = int32(t / cfg.TCUsPerCluster)
		m.tcuLocal[t] = int32(t % cfg.TCUsPerCluster)
	}
	return m, nil
}

// NewParallel builds a machine like New; workers must be 1.
//
// Deprecated: use New. The engine has one driver, which advances every
// shard on the calling goroutine, so any other worker count is an error.
func NewParallel(cfg config.Config, workers int) (*Machine, error) {
	if workers != 1 {
		return nil, fmt.Errorf("xmt: %d simulation workers requested; the engine runs on the calling goroutine only (use New)", workers)
	}
	return New(cfg)
}

// Config returns the machine's configuration.
func (m *Machine) Config() config.Config { return m.cfg }

// Memory exposes the memory system (for statistics and test inspection).
func (m *Machine) Memory() *mem.System { return m.memory }

// Network exposes the interconnect model.
func (m *Machine) Network() noc.Network { return m.network }

// Now returns the machine's current cycle.
func (m *Machine) Now() uint64 { return m.now }

// SimStats reports engine-level execution statistics: events executed,
// windows advanced, barrier synchronizations that delivered messages,
// and boundary messages merged. Purely diagnostic — used by the
// simulator benchmark record.
type SimStats struct {
	Events   uint64
	Windows  uint64
	Barriers uint64
	Messages uint64
}

// SimStats returns the machine's engine statistics so far.
func (m *Machine) SimStats() SimStats {
	s := SimStats{Windows: m.eng.Windows, Barriers: m.eng.Barriers, Messages: m.eng.Messages}
	for i := 0; i < m.eng.Shards(); i++ {
		s.Events += m.eng.Shard(i).Processed
	}
	return s
}

// AttachRecorder connects a trace recorder (nil detaches). When the
// recorder has a non-zero Epoch, an epoch sampler is installed as the
// engine's clock-advance hook to snapshot resource utilization every
// Epoch cycles. Attaching or detaching never alters simulated timing:
// the recorder only observes.
func (m *Machine) AttachRecorder(r *trace.Recorder) {
	m.rec = r
	m.pendingLabel = ""
	if r != nil && r.Epoch > 0 {
		m.sampler = newEpochSampler(m, r)
	} else {
		m.sampler = nil
	}
	m.installHook()
}

// Recorder returns the attached trace recorder, or nil.
func (m *Machine) Recorder() *trace.Recorder { return m.rec }

// Section labels the next Spawn in the trace (e.g. "fft r0 p2") and,
// when live metrics are attached, publishes the label as the current
// phase for the /progress endpoint. It is a no-op without an attached
// observer, so workloads may call it unconditionally.
func (m *Machine) Section(name string) {
	if m.rec != nil {
		m.pendingLabel = name
	}
	if m.live != nil {
		m.live.phase.Store(&name)
	}
}

// AdvanceSerial models serial-mode MTCU work of the given length
// (e.g. setup between parallel sections).
func (m *Machine) AdvanceSerial(cycles uint64) {
	m.eng.AdvanceTo(m.now + cycles)
	m.now += cycles
}

// SpawnResult summarizes one parallel section.
type SpawnResult struct {
	Start   uint64 // cycle the spawn was issued
	End     uint64 // cycle serial mode resumed (after join)
	Threads int
	Ops     stats.Counters // counters for this section only
	Util    stats.Util     // resource utilization over the section
}

// Cycles returns the section's duration.
func (r SpawnResult) Cycles() uint64 { return r.End - r.Start }

// Spawn executes a parallel section of n threads described by prog,
// running the simulation to completion (until the join), and returns
// timing and counters for the section. Threads are assigned to TCUs
// dynamically: the first wave starts simultaneously on all TCUs after
// the broadcast; each subsequent thread id is obtained by a prefix-sum
// on the thread counter, providing run-time load balancing exactly as
// described in §II-A.
func (m *Machine) Spawn(n int, prog Program) (SpawnResult, error) {
	if n < 0 {
		return SpawnResult{}, fmt.Errorf("xmt: negative thread count %d", n)
	}
	if m.outstanding != 0 || m.prog != nil {
		return SpawnResult{}, fmt.Errorf("xmt: spawn while a parallel section is active")
	}
	alive, err := m.aliveTCUs()
	if err != nil {
		return SpawnResult{}, err
	}
	m.syncMemCounters()
	before := m.Counters
	snap := m.Snapshot()
	start := m.now
	m.prog = prog
	m.totalTh = n
	m.nextTh = 0
	m.runs = m.rec == nil && m.rnet == nil && !m.perWord
	m.Counters.Spawns++
	if m.rec != nil {
		m.rec.Spawn(start, n, m.pendingLabel)
		m.pendingLabel = ""
		m.coordRec = trace.NewRecorder(0)
		for _, sh := range m.shards {
			sh.rec = trace.NewRecorder(0)
		}
	}
	m.emitDeadClusters(start)
	if m.rnet != nil {
		m.rnet.Observer = nocFaultObserver(m.coordRec)
	}
	if m.wd != nil {
		m.wd.Progress(start)
	}
	m.retries = m.retries[:0]
	for _, sh := range m.shards {
		sh.lastDone = 0
	}

	avail := m.cfg.TCUs
	if alive != nil {
		avail = len(alive)
	}
	wave := avail
	if n < wave {
		wave = n
	}
	m.outstanding = wave
	begin := start + SpawnBroadcastLatency
	for k := 0; k < wave; k++ {
		tcu := k
		if alive != nil {
			tcu = alive[k]
		}
		tid := m.nextTh
		m.nextTh++
		sh, local := m.tcuOf(tcu)
		m.eng.Shard(sh.id).At(begin, sopStart, uint64(local), uint64(tid))
	}
	if err := m.runGuarded(func() { m.eng.Run() }); err != nil {
		return SpawnResult{}, err
	}

	end := begin
	for _, sh := range m.shards {
		if sh.lastDone > end {
			end = sh.lastDone
		}
	}
	end += JoinLatency
	// Advance every shard's clock through the join.
	m.eng.AdvanceTo(end)
	m.now = end
	m.prog = nil

	m.reduceCounters()
	m.syncMemCounters()
	if m.rec != nil {
		parts := make([]*trace.Recorder, 0, len(m.shards)+1)
		for _, sh := range m.shards {
			parts = append(parts, sh.rec)
			sh.rec = nil
		}
		parts = append(parts, m.coordRec)
		m.coordRec = nil
		m.rec.MergeFrom(parts...)
		m.rec.Join(end)
	}
	ops := m.Counters
	subtract(&ops, before)
	return SpawnResult{Start: start, End: end, Threads: n, Ops: ops,
		Util: m.UtilizationSince(snap)}, nil
}

// syncMemCounters copies the memory system's and network's cumulative
// tallies into Counters. Called at spawn boundaries so per-section
// deltas (and the machine totals) always agree with the subsystems that
// own the counts.
func (m *Machine) syncMemCounters() {
	m.Counters.DRAMBytes = m.memory.DRAMBytes()
	m.Counters.NoCPackets = m.network.Packets()
	m.Counters.Prefetches = m.memory.Prefetches()
	m.Counters.RowHits, m.Counters.RowMisses = m.memory.RowBufferStats()
	if m.rnet != nil {
		m.Counters.NoCDropped = m.rnet.Drops
		m.Counters.NoCCorrupted = m.rnet.Corrupts
		m.Counters.NoCRetransmits = m.rnet.Retransmits
	}
	m.Counters.ECCCorrected, m.Counters.ECCUncorrectable, m.Counters.SilentFaults = m.memory.ECCStats()
}

// ExtendSpawn adds k virtual threads to the active parallel section
// (XMT's nested single-spawn, sspawn: "program execution flow can also
// be extended through nesting of sspawn commands", §II-A) and returns
// the id of the first new thread. It may only be called from within a
// Program.Thread callback of the active section; the new ids are picked
// up by TCUs through the same prefix-sum allocation path as the
// original thread range.
//
// The new ids are allocated at once: Program.Thread runs on the
// coordinator's goroutine, between the barriers that allocate ids.
func (m *Machine) ExtendSpawn(k int) (int, error) {
	if m.prog == nil {
		return 0, fmt.Errorf("xmt: ExtendSpawn outside a parallel section")
	}
	if k <= 0 {
		return 0, fmt.Errorf("xmt: ExtendSpawn count %d must be positive", k)
	}
	first := m.totalTh
	m.totalTh += k
	m.psOps++ // the parent's allocation prefix-sum
	return first, nil
}

func subtract(c *stats.Counters, base stats.Counters) {
	c.FPOps -= base.FPOps
	c.ALUOps -= base.ALUOps
	c.Loads -= base.Loads
	c.Stores -= base.Stores
	c.PSOps -= base.PSOps
	c.Threads -= base.Threads
	c.Spawns -= base.Spawns
	c.CacheHits -= base.CacheHits
	c.CacheMisses -= base.CacheMisses
	c.DRAMBytes -= base.DRAMBytes
	c.NoCPackets -= base.NoCPackets
	c.Prefetches -= base.Prefetches
	c.RowHits -= base.RowHits
	c.RowMisses -= base.RowMisses
	c.NoCDropped -= base.NoCDropped
	c.NoCCorrupted -= base.NoCCorrupted
	c.NoCRetransmits -= base.NoCRetransmits
	c.ECCCorrected -= base.ECCCorrected
	c.ECCUncorrectable -= base.ECCUncorrectable
	c.SilentFaults -= base.SilentFaults
}

// EnablePrefetch toggles the memory system's next-line prefetcher, one
// of the XMT performance enhancements §II-A mentions. Exposed as a
// switch so its benefit can be measured as an ablation.
func (m *Machine) EnablePrefetch(on bool) { m.memory.Prefetch = on }
