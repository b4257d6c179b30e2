// Package mem models the XMT shared-memory system: a global address
// space hashed across memory modules (MMs), each comprising an on-chip
// cache slice in front of a (possibly shared) DRAM channel, as described
// in §II-A of the paper. The model is timing-only: simulated data values
// live in the workload's own Go slices, while this package answers "when
// does this access complete and what did it cost".
//
// First-order effects modeled, matching the paper's analysis:
//   - each MM accepts one access per cycle, so concurrent accesses to the
//     same module (and in particular to the same location, e.g. a shared
//     twiddle table entry) are queued;
//   - cache misses fetch whole lines (CacheLineBytes), so strided access
//     (the FFT rotation phase) pays line-granularity overfetch;
//   - several MMs may share one DRAM controller (8/4/1 depending on the
//     configuration), bounding off-chip bandwidth;
//   - dirty evictions consume writeback bandwidth.
//
// The machine's coordinator is the only caller, so nothing here locks.
package mem

import (
	"fmt"

	"xmtfft/internal/config"
	"xmtfft/internal/fault"
	"xmtfft/internal/sim"
)

// Timing constants (cycles). These are micro-architecture calibration
// parameters, not published figures; see DESIGN.md §5.
const (
	// CacheHitLatency is the cache-slice access latency on a hit.
	CacheHitLatency = 3
	// DRAMAccessLatency is the fixed DRAM access latency added to a miss
	// (~30 ns at 3.3 GHz).
	DRAMAccessLatency = 100
	// lineTransferCycles is the channel occupancy of one line transfer:
	// CacheLineBytes / DRAMBytesPerCycle.
	lineTransferCycles = config.CacheLineBytes / config.DRAMBytesPerCycle
	// RowBytes is the DRAM row-buffer (page) size per channel.
	RowBytes = 2048
	// RowActivateCycles is the extra latency of opening a new row. With
	// enough banks, activates overlap transfers, so the penalty is
	// latency-only (channel occupancy is unaffected) — consistent with
	// the sustained-bandwidth calibration of the analytic model.
	RowActivateCycles = 24
	// ECCCorrectCycles is the SECDED correction pipeline penalty added
	// to a line fetch whose data arrived with a (correctable)
	// single-bit error. Error-free fetches pay nothing: detection
	// happens in the syndrome pipeline overlapped with the transfer.
	ECCCorrectCycles = 8
)

// HashAddress maps a byte address to a memory module index. The XMT
// design hashes the global address space across MMs at cache-line
// granularity; we use a Fibonacci (multiplicative) hash so that both
// unit-stride and large-power-of-two-stride streams spread evenly, which
// is the property the real hash is chosen for.
func HashAddress(addr uint64, modules int) int {
	line := addr / config.CacheLineBytes
	h := line * 0x9E3779B97F4A7C15 // 2^64 / golden ratio
	return int(h >> 32 % uint64(modules))
}

// Fault classifies the DRAM bit-error outcome of one access (fault
// injection; see EnableFaults). FaultNone on every access when fault
// injection is off.
type Fault uint8

const (
	// FaultNone: the access was error-free.
	FaultNone Fault = iota
	// FaultECCCorrected: the fetched line had a single-bit error that
	// SECDED corrected, at an ECCCorrectCycles latency penalty.
	FaultECCCorrected
	// FaultECCUncorrectable: the fetched line had a double-bit error;
	// SECDED detects it but cannot correct. The event is reported for
	// the machine to account (in this timing-directed model the data
	// itself lives host-side and is not perturbed).
	FaultECCUncorrectable
	// FaultSilent: a bit error occurred with ECC disabled — nothing in
	// the modeled hardware noticed; the simulator tallies it so the
	// cost of protection can be weighed against the exposure without it.
	FaultSilent
)

// AccessResult reports the outcome of one timed memory access.
type AccessResult struct {
	Done   uint64 // cycle at which the value is available / committed
	Hit    bool   // whether the access hit in the module's cache slice
	Module int    // memory module that served it
	Fault  Fault  // DRAM bit-error outcome (FaultNone unless injecting)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// channel is one DRAM channel: a bandwidth port plus an open-row
// register modeling the row buffer. Statistics live here (not on the
// System) so that shards owning disjoint channel sets never share
// counters.
type channel struct {
	port    sim.Port
	openRow uint64
	hasRow  bool
	// RowHits and RowMisses count row-buffer outcomes.
	RowHits, RowMisses uint64
	// Bytes counts DRAM traffic through this channel.
	Bytes uint64
}

// transfer schedules one line transfer of the line containing addr,
// returning (grant cycle, extra latency from a row activate).
func (ch *channel) transfer(t uint64, addr uint64) (uint64, uint64) {
	g := ch.port.GrantN(t, lineTransferCycles)
	ch.Bytes += config.CacheLineBytes
	row := addr / RowBytes
	var extra uint64
	if ch.hasRow && ch.openRow == row {
		ch.RowHits++
	} else {
		ch.RowMisses++
		extra = RowActivateCycles
		ch.openRow = row
		ch.hasRow = true
	}
	return g, extra
}

// module is one memory module: a set-associative cache slice plus a
// port, with its own hit/miss/queueing statistics.
type module struct {
	port    sim.Port
	sets    [][]line
	setMask uint64
	channel *channel // shared DRAM channel
	useTick uint64

	hits       uint64
	misses     uint64
	writebacks uint64
	queueDelay uint64
	prefetches uint64

	// Fault-injection state (nil stream = injection off for this
	// module). The stream is per-module so each module's error
	// sequence depends only on its own access order.
	faultStream  *fault.Stream
	eccCorrected uint64
	eccUncorrect uint64
	silentFaults uint64
}

// System is the whole memory system for one machine configuration.
type System struct {
	cfg      config.Config
	modules  []*module
	channels []*channel

	// Prefetch enables a next-line prefetcher in each memory module
	// (§II-A lists prefetching among XMT's performance enhancements): a
	// demand miss also fetches the following line if absent, hiding the
	// DRAM latency of streaming access at the cost of overfetch on
	// irregular patterns. Off by default so traffic accounting matches
	// the analytic model; the prefetch ablation turns it on.
	Prefetch bool

	// Fault-injection parameters, immutable after EnableFaults (set
	// before simulation starts; read concurrently by shards).
	ber     float64 // per-line-fetch single-bit error probability
	dber    float64 // per-line-fetch double-bit error probability
	eccOn   bool
	faulted bool
}

// NewSystem builds the memory system for cfg. The cache geometry is
// CacheBytesPerModule split into CacheLineBytes lines, 4-way associative.
func NewSystem(cfg config.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := config.CacheBytesPerModule / config.CacheLineBytes
	const ways = 4
	sets := lines / ways
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("mem: cache geometry gives %d sets; want a power of two", sets)
	}
	s := &System{cfg: cfg}
	s.channels = make([]*channel, cfg.DRAMChannels())
	for i := range s.channels {
		s.channels[i] = &channel{port: sim.Port{Width: 1}}
	}
	s.modules = make([]*module, cfg.MemModules)
	for i := range s.modules {
		m := &module{setMask: uint64(sets - 1), channel: s.channels[i/cfg.MMsPerDRAMCtrl]}
		m.sets = make([][]line, sets)
		backing := make([]line, sets*ways)
		for j := range m.sets {
			m.sets[j], backing = backing[:ways], backing[ways:]
		}
		s.modules[i] = m
	}
	return s, nil
}

// Config returns the configuration the system was built for.
func (s *System) Config() config.Config { return s.cfg }

// Modules returns the number of memory modules.
func (s *System) Modules() int { return len(s.modules) }

// Access performs one word access to addr arriving at its memory module
// at cycle t (NoC traversal time is the caller's concern) and returns
// when it completes. Write accesses allocate on miss (fetch-on-write)
// and mark the line dirty. This is the machine's entry point (the
// engine's coordinator calls it): with prefetching enabled the miss path
// fills the next line immediately, wherever it hashes to.
func (s *System) Access(t uint64, addr uint64, write bool) AccessResult {
	mi := HashAddress(addr, len(s.modules))
	res, missStart := s.accessModule(mi, t, addr, write)
	if s.Prefetch && !res.Hit {
		next := addr + config.CacheLineBytes
		s.prefetchInto(HashAddress(next, len(s.modules)), missStart, next)
	}
	return res
}

func (s *System) accessModule(mi int, t uint64, addr uint64, write bool) (AccessResult, uint64) {
	m := s.modules[mi]

	grant := m.port.Grant(t)
	m.queueDelay += grant - t

	tag := addr / config.CacheLineBytes
	set := m.sets[tag&m.setMask]
	m.useTick++

	// Hit path.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = m.useTick
			if write {
				set[i].dirty = true
			}
			m.hits++
			return AccessResult{Done: grant + CacheHitLatency, Hit: true, Module: mi}, 0
		}
	}

	// Miss: choose LRU victim, write back if dirty, fetch the line.
	m.misses++
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	start := grant + CacheHitLatency // tag check before channel request
	if set[victim].valid && set[victim].dirty {
		// Writeback occupies the channel but the demand fetch need not
		// wait for its completion beyond channel serialization.
		victimAddr := set[victim].tag * config.CacheLineBytes
		m.channel.transfer(start, victimAddr)
		m.writebacks++
	}
	fetch, activate := m.channel.transfer(start, addr)
	done := fetch + lineTransferCycles + DRAMAccessLatency + activate

	// Fault injection: one Bernoulli draw per line fetch from the
	// module's own stream decides error-free / single-bit / double-bit.
	// Single draws split the interval so protection settings never
	// change the error sequence, only its handling.
	var fv Fault
	if m.faultStream != nil {
		u := m.faultStream.Float64()
		switch {
		case u < s.dber:
			if s.eccOn {
				fv = FaultECCUncorrectable
				m.eccUncorrect++
			} else {
				fv = FaultSilent
				m.silentFaults++
			}
		case u < s.dber+s.ber:
			if s.eccOn {
				fv = FaultECCCorrected
				m.eccCorrected++
				done += ECCCorrectCycles
			} else {
				fv = FaultSilent
				m.silentFaults++
			}
		}
	}

	set[victim] = line{tag: tag, valid: true, dirty: write, used: m.useTick}

	return AccessResult{Done: done, Hit: false, Module: mi, Fault: fv}, start
}

// prefetchInto fills the line containing addr into module mi (which the
// caller has determined by hashing) if absent, starting the channel
// transfer at cycle t. The demand access that triggered it does not
// wait; the fill consumes channel bandwidth and a cache way like any
// other fill.
func (s *System) prefetchInto(mi int, t uint64, addr uint64) {
	m := s.modules[mi]
	tag := addr / config.CacheLineBytes
	set := m.sets[tag&m.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return // already resident
		}
	}
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		victimAddr := set[victim].tag * config.CacheLineBytes
		m.channel.transfer(t, victimAddr)
		m.writebacks++
	}
	m.channel.transfer(t, addr)
	m.prefetches++
	m.useTick++
	set[victim] = line{tag: tag, valid: true, used: m.useTick}
}

// EnableFaults arms DRAM bit-error injection: every demand line fetch
// draws once from its module's (seed, DomainDRAM, module) stream and
// suffers a single-bit error with probability ber or a double-bit
// error with probability dber. With ecc true the SECDED model corrects
// single-bit errors (adding ECCCorrectCycles to the fetch) and reports
// double-bit errors as uncorrectable; with ecc false errors pass
// silently and are only tallied. Call before simulation starts; with
// both rates zero it is a no-op and the system stays on the fault-free
// fast path (zero-overhead contract).
func (s *System) EnableFaults(seed uint64, ber, dber float64, ecc bool) {
	if ber <= 0 && dber <= 0 {
		return
	}
	s.ber, s.dber, s.eccOn, s.faulted = ber, dber, ecc, true
	for i, m := range s.modules {
		m.faultStream = fault.NewStream(seed, fault.DomainDRAM, uint64(i))
	}
}

// FaultsEnabled reports whether DRAM bit-error injection is armed.
func (s *System) FaultsEnabled() bool { return s.faulted }

// ECCStats returns aggregate fault outcomes: SECDED-corrected
// single-bit errors, detected-uncorrectable double-bit errors, and
// silent errors (injection with ECC disabled). Like the other
// aggregates, safe only when shards are quiescent.
func (s *System) ECCStats() (corrected, uncorrectable, silent uint64) {
	for _, m := range s.modules {
		corrected += m.eccCorrected
		uncorrectable += m.eccUncorrect
		silent += m.silentFaults
	}
	return corrected, uncorrectable, silent
}

// Flush writes back all dirty lines, returning the number written back.
// Used between FFT passes when measuring pure per-pass DRAM traffic.
func (s *System) Flush() int {
	n := 0
	for _, m := range s.modules {
		for si := range m.sets {
			for li := range m.sets[si] {
				l := &m.sets[si][li]
				if l.valid && l.dirty {
					l.dirty = false
					n++
					m.writebacks++
					m.channel.Bytes += config.CacheLineBytes
				}
			}
		}
	}
	return n
}

// Invalidate drops all cached lines without writeback (test helper for
// constructing cold-cache scenarios).
func (s *System) Invalidate() {
	for _, m := range s.modules {
		for si := range m.sets {
			for li := range m.sets[si] {
				m.sets[si][li] = line{}
			}
		}
	}
}

// Aggregate statistics, summed over modules/channels on demand. Reading
// them concurrently with shard execution is a race; call only from
// single-threaded phases or at window barriers.

// Hits returns total cache-slice hits.
func (s *System) Hits() uint64 {
	var n uint64
	for _, m := range s.modules {
		n += m.hits
	}
	return n
}

// Misses returns total cache-slice misses.
func (s *System) Misses() uint64 {
	var n uint64
	for _, m := range s.modules {
		n += m.misses
	}
	return n
}

// Writebacks returns total dirty-line writebacks.
func (s *System) Writebacks() uint64 {
	var n uint64
	for _, m := range s.modules {
		n += m.writebacks
	}
	return n
}

// Prefetches returns total issued prefetch fills.
func (s *System) Prefetches() uint64 {
	var n uint64
	for _, m := range s.modules {
		n += m.prefetches
	}
	return n
}

// DRAMBytes returns total off-chip traffic in bytes.
func (s *System) DRAMBytes() uint64 {
	var n uint64
	for _, ch := range s.channels {
		n += ch.Bytes
	}
	return n
}

// QueueDelay returns total cycles requests spent waiting for module
// ports, a direct measure of the queuing the paper describes for
// concurrent same-module accesses.
func (s *System) QueueDelay() uint64 {
	var n uint64
	for _, m := range s.modules {
		n += m.queueDelay
	}
	return n
}

// ChannelBusy returns total busy slots summed over DRAM channels,
// usable with a run's cycle count to compute DRAM utilization.
func (s *System) ChannelBusy() uint64 {
	var b uint64
	for _, ch := range s.channels {
		b += ch.port.Busy
	}
	return b
}

// RowBufferStats returns aggregate DRAM row-buffer hits and misses.
func (s *System) RowBufferStats() (hits, misses uint64) {
	for _, ch := range s.channels {
		hits += ch.RowHits
		misses += ch.RowMisses
	}
	return hits, misses
}

// ModuleLoad returns per-module port busy counts, for checking that
// address hashing spreads traffic evenly.
func (s *System) ModuleLoad() []uint64 {
	out := make([]uint64, len(s.modules))
	for i, m := range s.modules {
		out[i] = m.port.Busy
	}
	return out
}
