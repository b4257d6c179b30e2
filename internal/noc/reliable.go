package noc

// Reliable transport over a lossy interconnect: an ack/timeout/
// retransmit protocol with capped exponential backoff wrapped around
// any Network. Fault injection (internal/fault) decides which request
// packets are dropped in flight or corrupted (and so rejected by the
// receiver's checksum); the sender times out and retransmits. Each
// retransmission is a real traversal of the underlying network — it
// counts as a packet and contends for switch ports — so recovery
// overhead surfaces in the existing accounting rather than in a side
// channel. Acks ride the dedicated contention-free reply network
// piggybacked on replies and are modeled as free; the reply path itself
// is assumed reliable (its fabric is simpler and, in this model,
// protecting both directions would only scale the same overhead).
//
// Determinism: drop/corrupt outcomes come from one fault.Stream drawn
// once per send attempt, in network send order. The simulation engine
// calls into the wrapper from a deterministic serialization point (the
// coordinator's barrier, which merges messages in (time, shard, seq)
// order), so for a fixed seed every run experiences the identical fault
// sequence.

import (
	"fmt"

	"xmtfft/internal/fault"
)

// Retransmit protocol parameters (cycles / attempts).
const (
	// RetransmitSlack is added to the round-trip estimate to form the
	// base retransmission timeout: RTO = 2*Latency + RetransmitSlack.
	RetransmitSlack = 8
	// MaxBackoffShift caps the exponential backoff at RTO << shift.
	MaxBackoffShift = 5
	// MaxAttempts bounds the attempts per traversal before the sender
	// gives up and escalates to an event-level retry (TraverseReliable
	// returns ok=false). At any realistic loss rate p the give-up
	// probability p^MaxAttempts is negligible; the bound exists so a
	// pathological rate (drop ~ 1) yields a schedulable retry event —
	// keeping the event loop turning for the sim watchdog to catch —
	// instead of an unbounded inline loop inside one event.
	MaxAttempts = 16
)

// FaultEvent classifies a reliability event reported to the observer.
type FaultEvent uint8

const (
	// FaultDrop: the attempt's packet was lost in flight.
	FaultDrop FaultEvent = iota
	// FaultCorrupt: the packet arrived corrupted and was rejected.
	FaultCorrupt
	// FaultGiveUp: MaxAttempts exhausted; escalating to an event-level
	// retry.
	FaultGiveUp
)

// FaultObserver receives reliability events for tracing. cycle is the
// send cycle of the failed attempt (or the escalation cycle for
// FaultGiveUp); attempt is 1-based.
type FaultObserver func(cycle uint64, ev FaultEvent, src, dst, attempt int)

// Reliable wraps a Network with the retransmit protocol. It implements
// Network by delegation so machine-level accounting (Packets, Latency)
// keeps a single source of truth; the protected request path is
// TraverseReliable. Like the underlying networks it is not safe for
// concurrent use — the engine's coordinator calls it from one goroutine.
type Reliable struct {
	inner   Network
	rng     *fault.Stream
	drop    float64
	corrupt float64
	dropNth map[uint64]bool
	rto     uint64

	// attempts numbers every send attempt (1-based) across the run, the
	// coordinate NoCDropNth schedules refer to.
	attempts uint64

	// Drops, Corrupts and Retransmits count injected faults and the
	// resulting retransmissions; GiveUps counts escalations to
	// event-level retries. Synced into machine counters at spawn
	// boundaries like the other subsystem-owned statistics.
	Drops       uint64
	Corrupts    uint64
	Retransmits uint64
	GiveUps     uint64

	// Observer, when non-nil, receives each reliability event (wired to
	// the trace recorder by the machine; nil keeps tracing zero-cost).
	Observer FaultObserver
}

// WrapReliable builds the retransmit protocol around inner, injecting
// drops/corruption at the given per-packet rates (plus the explicit
// dropNth attempt list), drawn from the (seed, DomainNoC) stream.
func WrapReliable(inner Network, seed uint64, drop, corrupt float64, dropNth []uint64) *Reliable {
	r := &Reliable{
		inner:   inner,
		rng:     fault.NewStream(seed, fault.DomainNoC, 0),
		drop:    drop,
		corrupt: corrupt,
		rto:     2*inner.Latency() + RetransmitSlack,
	}
	if len(dropNth) > 0 {
		r.dropNth = make(map[uint64]bool, len(dropNth))
		for _, n := range dropNth {
			r.dropNth[n] = true
		}
	}
	return r
}

// Inner returns the wrapped network.
func (r *Reliable) Inner() Network { return r.inner }

// TraverseReliable sends one request packet from src to dst at cycle t
// under the retransmit protocol. On success it returns the arrival
// cycle at dst and ok=true; lost attempts have already been retried
// with capped exponential backoff, so the arrival reflects recovery
// latency and every attempt is accounted as a packet by the underlying
// network. After MaxAttempts consecutive losses it returns ok=false
// with the cycle at which the sender escalates; the caller must
// schedule an event-level retry no earlier than that cycle.
func (r *Reliable) TraverseReliable(t uint64, src, dst int) (uint64, bool) {
	send := t
	for attempt := 1; attempt <= MaxAttempts; attempt++ {
		r.attempts++
		seq := r.attempts
		arrive := r.inner.Traverse(send, src, dst)
		ev, faulted := r.outcome(seq)
		if !faulted {
			return arrive, true
		}
		if ev == FaultCorrupt {
			r.Corrupts++
		} else {
			r.Drops++
		}
		if r.Observer != nil {
			r.Observer(send, ev, src, dst, attempt)
		}
		if attempt == MaxAttempts {
			break
		}
		// Sender-side timeout with capped exponential backoff, counted
		// from the failed attempt's send cycle.
		shift := uint(attempt - 1)
		if shift > MaxBackoffShift {
			shift = MaxBackoffShift
		}
		send += r.rto << shift
		r.Retransmits++
	}
	r.GiveUps++
	giveUpAt := send + r.rto<<MaxBackoffShift
	if r.Observer != nil {
		r.Observer(giveUpAt, FaultGiveUp, src, dst, MaxAttempts)
	}
	return giveUpAt, false
}

// outcome draws one attempt's fate. Explicit dropNth scheduling takes
// precedence; the stream is still advanced exactly once per attempt so
// explicit drops don't shift the random sequence of later packets.
func (r *Reliable) outcome(seq uint64) (FaultEvent, bool) {
	v := r.rng.Float64()
	if r.dropNth != nil && r.dropNth[seq] {
		return FaultDrop, true
	}
	if v < r.drop {
		return FaultDrop, true
	}
	if v < r.drop+r.corrupt {
		return FaultCorrupt, true
	}
	return FaultDrop, false
}

// Traverse implements Network: an unprotected traversal of the inner
// network. The machine routes request packets through TraverseReliable
// when fault injection is active; this passthrough exists so the
// wrapper satisfies the interface for accounting consumers.
func (r *Reliable) Traverse(t uint64, src, dst int) uint64 {
	return r.inner.Traverse(t, src, dst)
}

// RepeatN implements Network: unprotected followers on the inner
// network. The machine never sends followers under fault injection,
// where every packet draws its own fate; like Traverse, this
// passthrough exists to satisfy the interface.
func (r *Reliable) RepeatN(k uint64) { r.inner.RepeatN(k) }

// Latency implements Network.
func (r *Reliable) Latency() uint64 { return r.inner.Latency() }

// Packets implements Network. Retransmissions traversed the inner
// network, so they are already included.
func (r *Reliable) Packets() uint64 { return r.inner.Packets() }

// AddReplies implements Network.
func (r *Reliable) AddReplies(n uint64) { r.inner.AddReplies(n) }

// String describes the wrapper's configuration (diagnostics).
func (r *Reliable) String() string {
	return fmt.Sprintf("reliable(drop=%g corrupt=%g rto=%d)", r.drop, r.corrupt, r.rto)
}
