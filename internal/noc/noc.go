// Package noc models the XMT interconnection network between processing
// clusters and memory modules (§II-B). Two operating points from the
// paper are covered:
//
//   - a pure mesh-of-trees (MoT) network (4k and 8k configurations):
//     a unique path exists for every (cluster, module) pair, so the
//     network itself is non-blocking; packets only serialize at the
//     endpoints (cluster LSU port and memory-module port, modeled in the
//     xmt and mem packages);
//
//   - a hybrid MoT+butterfly network (64k and 128k configurations):
//     inner MoT levels are replaced with butterfly levels to save silicon
//     area, introducing internal blocking that the paper identifies as
//     the bottleneck of the largest configurations (§VI-B observations
//     (b) and (c)).
//
// The switch-level Hybrid model is used by the detailed event simulator,
// which times the words of a same-line run after the first with one
// closed form (Network.RepeatN). The closed-form blocking recurrence
// (ButterflyThroughput) feeds only the "effective NoC fraction" of
// tech.Report, and a test cross-validates it against Hybrid. The
// analytic model (internal/model) uses neither: it derates the
// injection bandwidth by its own calibrated factor per butterfly level.
package noc

import (
	"fmt"
	"math/bits"

	"xmtfft/internal/config"
	"xmtfft/internal/sim"
)

// baseLatency is the fixed per-traversal overhead (arbitration, wire
// delay) added to the level count.
const baseLatency = 4

// Network times packet traversals from cluster src to memory module dst.
// It is the single source of truth for packet accounting: every request
// (Traverse, RepeatN) and every load reply (AddReplies) counts in
// Packets, so consumers snapshot Packets() instead of keeping parallel
// tallies.
type Network interface {
	// Traverse returns the arrival cycle at dst for a packet injected at
	// cycle t. Implementations record contention internally.
	Traverse(t uint64, src, dst int) uint64
	// RepeatN sends k >= 1 followers: packets from the same src to the
	// same dst as the latest Traverse, injected on the k cycles after it,
	// with no packet sent in between. Every switch port is width 1, so
	// after the latest packet took slot g at a port the followers take
	// g+1 .. g+k there: each waits as long at every port and arrives one
	// cycle after the one before, which RepeatN accounts without routing
	// the packets again.
	RepeatN(k uint64)
	// Latency returns the uncontended one-way traversal latency. It is
	// also a load reply's: XMT's MoT reply trees are disjoint from the
	// request trees (§II-B), so a reply leaving its module at cycle t
	// reaches its cluster at t + Latency(), never delayed by requests.
	Latency() uint64
	// Packets returns how many packets have traversed the network
	// (requests and replies).
	Packets() uint64
	// AddReplies credits n reply packets to the packet counter. Replies
	// are contention-free, so the coordinator times them itself (by
	// Latency) and credits a load group's replies in one call; the
	// network stays the single source of truth for packet accounting.
	AddReplies(n uint64)
}

// MoT is a pure mesh-of-trees network: non-blocking, fixed latency.
type MoT struct {
	latency uint64
	packets uint64
}

// NewMoT builds a mesh-of-trees network for cfg using its MoTLevels.
func NewMoT(cfg config.Config) *MoT {
	return &MoT{latency: uint64(cfg.MoTLevels) + baseLatency}
}

// Traverse implements Network. A MoT has a dedicated path per
// (src, dst) pair, so traversal is pure pipeline latency.
func (m *MoT) Traverse(t uint64, src, dst int) uint64 {
	m.packets++
	return t + m.latency
}

// RepeatN implements Network: the followers arrive on the k cycles
// after the latest packet, with no contention to account.
func (m *MoT) RepeatN(k uint64) { m.packets += k }

// Latency implements Network.
func (m *MoT) Latency() uint64 { return m.latency }

// Packets implements Network.
func (m *MoT) Packets() uint64 { return m.packets }

// AddReplies implements Network.
func (m *MoT) AddReplies(n uint64) { m.packets += n }

// Hybrid is a MoT outer network around b inner butterfly levels. Each
// butterfly level is an array of single-packet-per-cycle switch ports;
// a packet's switch at level s is determined by destination-tag routing,
// so packets from different sources heading to nearby destinations
// progressively converge and contend.
type Hybrid struct {
	latency uint64
	ports   int // a power of two, so ports-1 masks an endpoint into range
	stages  [][]sim.Port
	packets uint64
	// route and blocked describe the latest packet for RepeatN: its
	// switch port at each butterfly level and the cycles it waited at
	// them. They are scratch, not state: a follower never crosses a
	// checkpoint, which is taken between spawns.
	route   []*sim.Port
	blocked uint64
	// Blocked accumulates cycles packets spent waiting at butterfly
	// switches; exported for utilization reporting.
	Blocked uint64
}

// NewHybrid builds the hybrid network for cfg. cfg.Clusters must be a
// power of two (true for all paper configurations).
func NewHybrid(cfg config.Config) (*Hybrid, error) {
	p := cfg.Clusters
	if p <= 0 || p&(p-1) != 0 {
		return nil, fmt.Errorf("noc: cluster count %d must be a power of two", p)
	}
	b := cfg.ButterflyLevels
	n := bits.Len(uint(p)) - 1
	if b > n {
		b = n // cannot have more routing stages than address bits
	}
	h := &Hybrid{
		latency: uint64(cfg.MoTLevels+cfg.ButterflyLevels) + baseLatency,
		ports:   p,
		stages:  make([][]sim.Port, b),
		route:   make([]*sim.Port, b),
	}
	for s := range h.stages {
		h.stages[s] = make([]sim.Port, p)
	}
	return h, nil
}

// switchIndex returns the switch a packet occupies at butterfly level s:
// destination-tag routing has fixed the low s+1 position bits to dst's
// by the time the packet leaves level s.
func (h *Hybrid) switchIndex(src, dst, s int) int {
	mask := (1 << (s + 1)) - 1
	return (dst & mask) | (src &^ mask)
}

// Traverse implements Network: the packet claims one slot in its switch
// at every butterfly level in order, then completes the MoT levels.
func (h *Hybrid) Traverse(t uint64, src, dst int) uint64 {
	h.packets++
	src &= h.ports - 1
	dst &= h.ports - 1
	now := t
	for s := range h.stages {
		p := &h.stages[s][h.switchIndex(src, dst, s)]
		h.route[s] = p
		now = p.Grant(now) + 1 // one cycle per level
	}
	// Remaining (MoT + constant) latency, minus the cycles already spent
	// stepping through butterfly levels. Every cycle past the
	// uncontended latency was spent waiting at a switch.
	arrive := now + h.latency - uint64(len(h.stages))
	h.blocked = arrive - t - h.latency
	h.Blocked += h.blocked
	return arrive
}

// RepeatN implements Network: the followers take the next k slots at
// each of the latest packet's switch ports, and each waits as long in
// total as the latest packet.
func (h *Hybrid) RepeatN(k uint64) {
	h.packets += k
	for _, p := range h.route {
		p.GrantNext(k)
	}
	h.Blocked += k * h.blocked
}

// Latency implements Network.
func (h *Hybrid) Latency() uint64 { return h.latency }

// Packets implements Network.
func (h *Hybrid) Packets() uint64 { return h.packets }

// AddReplies implements Network.
func (h *Hybrid) AddReplies(n uint64) { h.packets += n }

// New returns the appropriate switch-level network for cfg: a pure MoT
// when cfg.ButterflyLevels is zero, otherwise a Hybrid.
func New(cfg config.Config) (Network, error) {
	if cfg.ButterflyLevels == 0 {
		return NewMoT(cfg), nil
	}
	return NewHybrid(cfg)
}

// ButterflyThroughput returns the expected fraction of offered load that
// an unbuffered butterfly of the given number of 2x2-switch stages
// delivers under uniform random traffic, using the classic iterated
// blocking recurrence
//
//	q_{i+1} = 1 - (1 - q_i/2)^2
//
// (Patel's analysis of delta networks). load is the per-port injection
// probability per cycle (0..1]; the result is the per-port acceptance
// probability after all stages, so effective bandwidth = result/load of
// the offered traffic.
func ButterflyThroughput(stages int, load float64) float64 {
	if load <= 0 {
		return 0
	}
	if load > 1 {
		load = 1
	}
	q := load
	for i := 0; i < stages; i++ {
		h := 1 - q/2
		q = 1 - h*h
	}
	return q
}

// EffectiveBandwidthFraction returns the fraction of aggregate NoC
// injection bandwidth usable by cfg under saturating uniform traffic:
// 1.0 for a pure MoT, the butterfly acceptance probability otherwise.
func EffectiveBandwidthFraction(cfg config.Config) float64 {
	if cfg.ButterflyLevels == 0 {
		return 1
	}
	return ButterflyThroughput(cfg.ButterflyLevels, 1)
}
