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
// The switch-level Hybrid model is used by the detailed event simulator;
// the closed-form blocking recurrence (ButterflyThroughput) is used by
// the analytic projection model, and the two are cross-validated in
// tests.
package noc

import (
	"fmt"
	"math/bits"

	"xmtfft/internal/config"
	"xmtfft/internal/sim"
	"xmtfft/internal/stats"
)

// baseLatency is the fixed per-traversal overhead (arbitration, wire
// delay) added to the level count.
const baseLatency = 4

// Network times packet traversals from cluster src to memory module dst.
// It is the single source of truth for packet accounting: every request
// (Traverse) and every load reply (Reply) increments the Packets counter,
// so consumers snapshot Packets() instead of keeping parallel tallies.
type Network interface {
	// Traverse returns the arrival cycle at dst for a packet injected at
	// cycle t. Implementations record contention internally.
	Traverse(t uint64, src, dst int) uint64
	// Reply returns the arrival cycle back at the requesting cluster for
	// a load reply leaving the memory module at cycle t. XMT's MoT reply
	// trees are disjoint from the request trees (§II-B), so replies see
	// only pipeline latency, never request-path contention — but they are
	// still packets and are counted as such.
	Reply(t uint64) uint64
	// Latency returns the uncontended one-way traversal latency.
	Latency() uint64
	// Packets returns how many packets have traversed the network
	// (requests and replies).
	Packets() uint64
	// AddReplies credits n reply packets to the packet counter without
	// computing their timing. The sharded machine computes reply arrival
	// times shard-locally (replies are contention-free, pure latency) and
	// reports them to the coordinator at window barriers, which calls
	// this so the network stays the single source of truth for packet
	// accounting.
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

// Reply implements Network.
func (m *MoT) Reply(t uint64) uint64 {
	m.packets++
	return t + m.latency
}

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
	// Blocked accumulates cycles packets spent waiting at butterfly
	// switches; exported for utilization reporting.
	Blocked uint64
	// DelayHist, when non-nil, records each packet's total traversal
	// delay beyond the uncontended latency (attach via ObserveDelays).
	DelayHist *stats.Histogram
}

// ObserveDelays attaches a histogram collecting per-packet queueing
// delay (bucketed by the given width in cycles).
func (h *Hybrid) ObserveDelays(bucketWidth uint64) *stats.Histogram {
	h.DelayHist = stats.NewHistogram(bucketWidth)
	return h.DelayHist
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
		idx := h.switchIndex(src, dst, s)
		g := h.stages[s][idx].Grant(now)
		h.Blocked += g - now
		now = g + 1 // one cycle per level
	}
	// Remaining (MoT + constant) latency, minus the cycles already spent
	// stepping through butterfly levels.
	rest := h.latency - uint64(len(h.stages))
	arrive := now + rest
	if h.DelayHist != nil {
		h.DelayHist.Observe(arrive - t - h.latency)
	}
	return arrive
}

// Reply implements Network. The reply path reuses the hybrid's level
// count for latency but, like the MoT's, is contention-free: memory
// replies fan out toward clusters on the dedicated return network.
func (h *Hybrid) Reply(t uint64) uint64 {
	h.packets++
	return t + h.latency
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

// EffectiveAggregateGBs returns the usable aggregate NoC bandwidth of
// cfg in GB/s under saturating uniform traffic.
func EffectiveAggregateGBs(cfg config.Config) float64 {
	return cfg.AggregateNoCBandwidthGBs() * EffectiveBandwidthFraction(cfg)
}
