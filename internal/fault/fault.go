// Package fault is the deterministic fault-injection engine of the
// simulator's robustness subsystem. It provides seed-driven random
// streams (one independent splitmix64 stream per fault domain and site,
// so no site's draws depend on another's) and the Plan
// describing which faults to inject: rates (per-packet NoC drop or
// corruption probability, per-line-fetch DRAM bit-error rates) and
// explicit schedules (drop the Nth packet, kill a listed cluster).
//
// Determinism contract: a Plan plus a seed fully determines every fault
// a run experiences. Streams are keyed by (seed, domain, site) so the
// draw sequence of one site never depends on activity at another —
// DRAM module 7's errors are the same whether module 3 was busy or
// idle, because each stream is only ever advanced from one
// deterministically-ordered call site (the machine's coordinator, in
// barrier merge order). The resilience mechanisms that absorb
// these faults live with the hardware they protect: the retransmit
// protocol in internal/noc, the SECDED ECC model in internal/mem, the
// spawn-boundary cluster failover in internal/xmt, and the livelock
// watchdog in internal/sim.
package fault

import (
	"fmt"
	"sort"
)

// Domain identifies an independent fault-injection stream family.
type Domain uint8

const (
	// DomainNoC draws per-packet drop/corruption outcomes.
	DomainNoC Domain = iota
	// DomainDRAM draws per-line-fetch bit-error outcomes (site = memory
	// module index, so module streams are independent and shard-safe).
	DomainDRAM
	// DomainCompute draws cluster fail-stop choices.
	DomainCompute
)

// Stream is a deterministic splitmix64 pseudo-random stream. The zero
// value is usable but every stream should come from NewStream so that
// distinct (seed, domain, site) triples yield decorrelated sequences.
// A Stream is not safe for concurrent use; give each concurrent site
// its own.
type Stream struct {
	state uint64
}

// NewStream returns the stream keyed by (seed, domain, site).
func NewStream(seed uint64, d Domain, site uint64) *Stream {
	s := &Stream{state: seed ^ 0x6A09E667F3BCC909}
	// Absorb the domain and site through full mixing rounds so that
	// related keys (seed, seed+1; site, site+1) diverge immediately.
	s.state = s.Uint64() ^ (uint64(d)+1)*0x9E3779B97F4A7C15
	s.state = s.Uint64() ^ (site+1)*0xC2B2AE3D27D4EB4F
	return s
}

// Uint64 returns the next value of the stream (splitmix64).
func (s *Stream) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns the next value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// State returns the stream's position, for checkpointing. A stream
// restored with SetState produces exactly the sequence the captured
// stream would have — the property that makes mid-run checkpoints of
// fault-injected simulations bit-identical to uninterrupted runs.
func (s *Stream) State() uint64 { return s.state }

// SetState restores a position captured by State.
func (s *Stream) SetState(v uint64) { s.state = v }

// Hit draws one Bernoulli outcome with probability p. It always
// consumes exactly one value from the stream (even for p <= 0 or
// p >= 1), so alternative protection settings see identical fault
// sequences for the same seed.
func (s *Stream) Hit(p float64) bool {
	v := s.Float64()
	return v < p
}

// Plan describes the faults one run injects. The zero value injects
// nothing (Active reports false) and enabling it on a machine is a
// no-op, preserving the zero-overhead contract.
type Plan struct {
	// Seed keys every fault stream of the run.
	Seed uint64

	// NoCDrop is the per-packet probability that a request packet is
	// lost in the interconnect (recovered by timeout + retransmit).
	NoCDrop float64
	// NoCCorrupt is the per-packet probability that a request packet
	// arrives corrupted; the receiver's checksum rejects it and the
	// sender retransmits, so the cost is the same as a drop but the
	// event is accounted separately.
	NoCCorrupt float64
	// NoCDropNth lists explicit packet-attempt sequence numbers
	// (1-based, in network send order) to drop, independent of the
	// rates — the "(cycle, site) list" form of a schedule, expressed in
	// network send order, which is deterministic.
	NoCDropNth []uint64

	// DRAMBitErr is the per-line-fetch probability of a single-bit
	// error (correctable under SECDED ECC, at a cycle penalty).
	DRAMBitErr float64
	// DRAMDoubleBitErr is the per-line-fetch probability of a
	// double-bit error (detectable but uncorrectable under SECDED).
	DRAMDoubleBitErr float64
	// NoECC disables the SECDED model: bit errors then pass silently
	// into the machine and are only tallied, modeling an unprotected
	// memory system. Default false = ECC protection on.
	NoECC bool

	// KillClusters lists cluster indices that fail-stop before the next
	// parallel section; the machine degrades gracefully by remapping
	// virtual threads onto the surviving clusters.
	KillClusters []int
}

// NoCActive reports whether any NoC fault is configured.
func (p Plan) NoCActive() bool {
	return p.NoCDrop > 0 || p.NoCCorrupt > 0 || len(p.NoCDropNth) > 0
}

// DRAMActive reports whether any DRAM fault is configured.
func (p Plan) DRAMActive() bool {
	return p.DRAMBitErr > 0 || p.DRAMDoubleBitErr > 0
}

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.NoCActive() || p.DRAMActive() || len(p.KillClusters) > 0
}

// Validate checks the plan's parameters for internal consistency.
func (p Plan) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("fault: %s rate %g outside [0, 1]", name, v)
		}
		return nil
	}
	if err := check("noc drop", p.NoCDrop); err != nil {
		return err
	}
	if err := check("noc corrupt", p.NoCCorrupt); err != nil {
		return err
	}
	if err := check("dram bit-error", p.DRAMBitErr); err != nil {
		return err
	}
	if err := check("dram double-bit-error", p.DRAMDoubleBitErr); err != nil {
		return err
	}
	if p.NoCDrop+p.NoCCorrupt > 1 {
		return fmt.Errorf("fault: noc drop+corrupt rates sum to %g > 1", p.NoCDrop+p.NoCCorrupt)
	}
	if p.DRAMBitErr+p.DRAMDoubleBitErr > 1 {
		return fmt.Errorf("fault: dram error rates sum to %g > 1", p.DRAMBitErr+p.DRAMDoubleBitErr)
	}
	for _, c := range p.KillClusters {
		if c < 0 {
			return fmt.Errorf("fault: negative cluster index %d in kill list", c)
		}
	}
	return nil
}

// PickClusters deterministically chooses k distinct cluster indices out
// of total to fail-stop, keyed by the seed (partial Fisher–Yates on the
// DomainCompute stream). The result is sorted ascending. k is clamped
// to total.
func PickClusters(seed uint64, k, total int) []int {
	if k <= 0 || total <= 0 {
		return nil
	}
	if k > total {
		k = total
	}
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	s := NewStream(seed, DomainCompute, 0)
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		j := i + int(s.Uint64()%uint64(total-i))
		idx[i], idx[j] = idx[j], idx[i]
		out = append(out, idx[i])
	}
	sort.Ints(out)
	return out
}
