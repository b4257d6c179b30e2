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
// Each module's cache slice is 4-way set associative with exact LRU
// replacement, kept compact for the host: one word per way and one byte
// of LRU order per set. The machine's coordinator is the only caller,
// so nothing here locks.
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

// HashAddress maps a byte address to one of modules memory modules,
// which must be a power of two (config.Validate requires it of every
// machine). The XMT design hashes the global address space across MMs
// at cache-line granularity; we use a Fibonacci (multiplicative) hash so
// that both unit-stride and large-power-of-two-stride streams spread
// evenly, which is the property the real hash is chosen for. The module
// is (line·φ >> 32) mod modules, taken as a mask.
func HashAddress(addr uint64, modules int) int {
	line := addr / config.CacheLineBytes
	h := line * 0x9E3779B97F4A7C15 >> 32 // 2^64 / golden ratio
	return int(h & uint64(modules-1))
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

// ways is the cache slices' associativity.
const ways = 4

// A cache way is one word: the cached line's tag plus one, shifted left
// by one, with the dirty bit in bit 0. Zero is an invalid way, so a
// cleared slice is an empty cache and a tag check is one compare. A set
// is four words, 32 bytes.
const dirtyBit = 1

// wayOf returns the way word of a clean copy of line tag.
func wayOf(tag uint64) uint64 { return (tag + 1) << 1 }

// tagOf returns the tag of the line a valid way holds.
func tagOf(w uint64) uint64 { return w>>1 - 1 }

// Each set keeps its exact LRU order in one byte: four 2-bit way
// numbers, the most recently used in bits 0-1 and the least recently
// used in bits 6-7. Touching a way moves it to the front through
// toFront, a 256×4 table computed once. A fill evicts the least
// recently used way. Invalid ways are never touched, so they stay
// behind every valid way, and an empty set lists ways 1, 2, 3 and 0
// from the back: fills take the invalid ways in that order, the choice
// of the timestamp scan this layout replaced (the first invalid way
// among ways 1-3, else way 0 if invalid, else the oldest stamp).
const lruEmpty = 0<<0 | 3<<2 | 2<<4 | 1<<6

var toFront [256][ways]uint8

func init() {
	for o := range toFront {
		for w := range ways {
			rest := uint8(w)
			k := 1
			for i := 0; i < ways && k < ways; i++ {
				if v := uint8(o >> (2 * i) & 3); v != uint8(w) {
					rest |= v << (2 * k)
					k++
				}
			}
			toFront[o][w] = rest
		}
	}
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
	ways    []uint64 // set-major: set s is ways[s*ways : (s+1)*ways]
	lru     []uint8  // each set's LRU order
	setMask uint64
	channel *channel // shared DRAM channel

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

// set returns the index and the ways of the cache set that holds tag.
func (m *module) set(tag uint64) (uint64, *[ways]uint64) {
	si := tag & m.setMask
	return si, (*[ways]uint64)(m.ways[si*ways:])
}

// touch makes way w the most recently used of set si.
func (m *module) touch(si uint64, w int) {
	m.lru[si] = toFront[m.lru[si]][w]
}

// fill loads line tag into the least recently used way of set si,
// writing a dirty victim back on the channel from cycle t, and makes
// the way the most recently used. It returns the way.
func (m *module) fill(si uint64, set *[ways]uint64, tag, t uint64, write bool) *uint64 {
	v := int(m.lru[si] >> 6)
	if old := set[v]; old&dirtyBit != 0 {
		// Writeback occupies the channel but the fetch need not wait for
		// its completion beyond channel serialization.
		m.channel.transfer(t, tagOf(old)*config.CacheLineBytes)
		m.writebacks++
	}
	set[v] = wayOf(tag)
	if write {
		set[v] |= dirtyBit
	}
	m.touch(si, v)
	return &set[v]
}

// System is the whole memory system for one machine configuration.
type System struct {
	cfg      config.Config
	modules  []module
	channels []channel
	ways     []uint64 // every module's cache ways, module-major
	lru      []uint8  // every module's set orders, module-major

	// Prefetch enables a next-line prefetcher in each memory module
	// (§II-A lists prefetching among XMT's performance enhancements): a
	// demand miss also fetches the following line if absent, hiding the
	// DRAM latency of streaming access at the cost of overfetch on
	// irregular patterns. Off by default so traffic accounting matches
	// the analytic model; the prefetch ablation turns it on.
	Prefetch bool

	// follow describes the latest Access for RepeatN: its module, the
	// way that now holds its line, and its queue delay. It is scratch,
	// not state: a follower never crosses a checkpoint, which is taken
	// between spawns.
	follow struct {
		mi    int
		m     *module
		way   *uint64
		delay uint64
	}

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
	perModule := config.CacheBytesPerModule / config.CacheLineBytes
	sets := perModule / ways
	if sets < 2 || sets&(sets-1) != 0 {
		// RepeatN relies on two sets at least: a prefetch fills the next
		// line, which then lies in another set than the demand line.
		return nil, fmt.Errorf("mem: cache geometry gives %d sets; want a power of two of at least 2", sets)
	}
	s := &System{cfg: cfg}
	s.channels = make([]channel, cfg.DRAMChannels())
	for i := range s.channels {
		s.channels[i].port.Width = 1
	}
	s.modules = make([]module, cfg.MemModules)
	s.ways = make([]uint64, cfg.MemModules*perModule)
	s.lru = make([]uint8, cfg.MemModules*sets)
	for i := range s.modules {
		s.modules[i] = module{
			ways:    s.ways[i*perModule : (i+1)*perModule],
			lru:     s.lru[i*sets : (i+1)*sets],
			setMask: uint64(sets - 1),
			channel: &s.channels[i/cfg.MMsPerDRAMCtrl],
		}
	}
	s.Invalidate()
	return s, nil
}

// Config returns the configuration the system was built for.
func (s *System) Config() config.Config { return s.cfg }

// Modules returns the number of memory modules.
func (s *System) Modules() int { return len(s.modules) }

// Access performs one word access to addr, which hashes to module mi
// (HashAddress(addr, Modules()), which the caller has already computed
// to route the request), arriving at the module at cycle t (NoC
// traversal time is the caller's concern), and returns when it
// completes. Write accesses allocate on miss (fetch-on-write) and mark
// the line dirty. This is the machine's entry point (the engine's
// coordinator calls it): with prefetching enabled the miss path fills
// the next line immediately, wherever it hashes to.
func (s *System) Access(t uint64, mi int, addr uint64, write bool) AccessResult {
	res, missStart := s.accessModule(mi, t, addr, write)
	if s.Prefetch && !res.Hit {
		next := addr + config.CacheLineBytes
		s.prefetchInto(HashAddress(next, len(s.modules)), missStart, next)
	}
	return res
}

// RepeatN serves k >= 1 followers: word accesses to the line of the
// latest Access, arriving on the k cycles after it, with no other access
// in between. The module port is width 1, so after the latest access
// took slot g the followers take g+1 .. g+k and each queues exactly as
// long. They hit the way the latest access left the line in: a hit
// found it there, a miss filled it, and a prefetch the miss triggered
// filled the next line, which lies in another set. That way is already
// the set's most recently used, so RepeatN grants the next k port
// slots, adds k times the queue delay and ORs in the dirty bit, counting
// k hits, in O(1): no hash, no tag search and no LRU update. A hit draws
// no fault. It returns the last follower's result.
func (s *System) RepeatN(k uint64, write bool) AccessResult {
	f := &s.follow
	m := f.m
	last := m.port.GrantNext(k)
	m.queueDelay += k * f.delay
	if write {
		*f.way |= dirtyBit
	}
	m.hits += k
	return AccessResult{Done: last + CacheHitLatency, Hit: true, Module: f.mi}
}

func (s *System) accessModule(mi int, t uint64, addr uint64, write bool) (AccessResult, uint64) {
	m := &s.modules[mi]

	grant := m.port.Grant(t)
	m.queueDelay += grant - t
	s.follow.mi, s.follow.m, s.follow.delay = mi, m, grant-t

	tag := addr / config.CacheLineBytes
	si, set := m.set(tag)

	// Hit path.
	key := wayOf(tag)
	for i := range set {
		if set[i]&^dirtyBit == key {
			if write {
				set[i] |= dirtyBit
			}
			m.touch(si, i)
			m.hits++
			s.follow.way = &set[i]
			return AccessResult{Done: grant + CacheHitLatency, Hit: true, Module: mi}, 0
		}
	}

	// Miss: evict the victim (writing it back if dirty) and fetch the
	// line after the tag check.
	m.misses++
	start := grant + CacheHitLatency
	s.follow.way = m.fill(si, set, tag, start, write)
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
	return AccessResult{Done: done, Hit: false, Module: mi, Fault: fv}, start
}

// prefetchInto fills the line containing addr into module mi (which the
// caller has determined by hashing) if absent, starting the channel
// transfer at cycle t. The demand access that triggered it does not
// wait; the fill consumes channel bandwidth and a cache way like any
// other fill.
func (s *System) prefetchInto(mi int, t uint64, addr uint64) {
	m := &s.modules[mi]
	tag := addr / config.CacheLineBytes
	si, set := m.set(tag)
	key := wayOf(tag)
	for i := range set {
		if set[i]&^dirtyBit == key {
			return // already resident
		}
	}
	m.fill(si, set, tag, t, false)
	m.channel.transfer(t, addr)
	m.prefetches++
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
	for i := range s.modules {
		s.modules[i].faultStream = fault.NewStream(seed, fault.DomainDRAM, uint64(i))
	}
}

// FaultsEnabled reports whether DRAM bit-error injection is armed.
func (s *System) FaultsEnabled() bool { return s.faulted }

// ECCStats returns aggregate fault outcomes: SECDED-corrected
// single-bit errors, detected-uncorrectable double-bit errors, and
// silent errors (injection with ECC disabled). Like the other
// aggregates, safe only when shards are quiescent.
func (s *System) ECCStats() (corrected, uncorrectable, silent uint64) {
	for i := range s.modules {
		m := &s.modules[i]
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
	for i := range s.modules {
		m := &s.modules[i]
		for k := range m.ways {
			if m.ways[k]&dirtyBit != 0 {
				m.ways[k] &^= dirtyBit
				n++
				m.writebacks++
				m.channel.Bytes += config.CacheLineBytes
			}
		}
	}
	return n
}

// Invalidate drops all cached lines without writeback, leaving the
// cache as NewSystem builds it (tests use it for cold-cache scenarios).
func (s *System) Invalidate() {
	clear(s.ways)
	for i := range s.lru {
		s.lru[i] = lruEmpty
	}
}

// Aggregate statistics, summed over modules/channels on demand. Reading
// them concurrently with shard execution is a race; call only from
// single-threaded phases or at window barriers.

// Hits returns total cache-slice hits.
func (s *System) Hits() uint64 {
	var n uint64
	for i := range s.modules {
		n += s.modules[i].hits
	}
	return n
}

// Misses returns total cache-slice misses.
func (s *System) Misses() uint64 {
	var n uint64
	for i := range s.modules {
		n += s.modules[i].misses
	}
	return n
}

// Writebacks returns total dirty-line writebacks.
func (s *System) Writebacks() uint64 {
	var n uint64
	for i := range s.modules {
		n += s.modules[i].writebacks
	}
	return n
}

// Prefetches returns total issued prefetch fills.
func (s *System) Prefetches() uint64 {
	var n uint64
	for i := range s.modules {
		n += s.modules[i].prefetches
	}
	return n
}

// DRAMBytes returns total off-chip traffic in bytes.
func (s *System) DRAMBytes() uint64 {
	var n uint64
	for i := range s.channels {
		n += s.channels[i].Bytes
	}
	return n
}

// QueueDelay returns total cycles requests spent waiting for module
// ports, a direct measure of the queuing the paper describes for
// concurrent same-module accesses.
func (s *System) QueueDelay() uint64 {
	var n uint64
	for i := range s.modules {
		n += s.modules[i].queueDelay
	}
	return n
}

// ChannelBusy returns total busy slots summed over DRAM channels,
// usable with a run's cycle count to compute DRAM utilization.
func (s *System) ChannelBusy() uint64 {
	var b uint64
	for i := range s.channels {
		b += s.channels[i].port.Busy
	}
	return b
}

// RowBufferStats returns aggregate DRAM row-buffer hits and misses.
func (s *System) RowBufferStats() (hits, misses uint64) {
	for i := range s.channels {
		hits += s.channels[i].RowHits
		misses += s.channels[i].RowMisses
	}
	return hits, misses
}

// ModuleLoad returns per-module port busy counts, for checking that
// address hashing spreads traffic evenly.
func (s *System) ModuleLoad() []uint64 {
	out := make([]uint64, len(s.modules))
	for i := range s.modules {
		out[i] = s.modules[i].port.Busy
	}
	return out
}
