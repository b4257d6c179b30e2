package mem

// Checkpoint state capture (internal/ckpt). The memory system's state is
// the cache-slice contents (tags and LRU bookkeeping — data values live
// host-side in this timing-directed model), the DRAM channels' port and
// row-buffer state, all statistics counters, and the per-module fault
// stream positions. Geometry (set count, associativity, channel wiring)
// is configuration, rebuilt by NewSystem on restore, not state.
//
// The format predates the one-byte LRU orders: it gives every line a
// last-use stamp, and the least recently used valid way of a set is the
// one with the smallest stamp, the lowest-numbered among equals.
// CaptureState writes stamps 1-4 in each set's LRU order and RestoreState
// rebuilds the orders from any stamps, so checkpoints written with
// running timestamps resume with the same evictions.

import (
	"fmt"

	"xmtfft/internal/sim"
)

// LineState is one cache way's serializable state. Used orders the
// valid ways of a set by last use (larger is more recent).
type LineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Used  uint64
}

// ModuleState is one memory module's serializable state. Lines is
// flattened set-major (set 0's ways first).
type ModuleState struct {
	Port  sim.PortState
	Lines []LineState
	// UseTick is at least every Used stamp in Lines: the next stamp a
	// timestamp LRU would issue is UseTick+1.
	UseTick uint64

	Hits       uint64
	Misses     uint64
	Writebacks uint64
	QueueDelay uint64
	Prefetches uint64

	FaultStream  uint64 // stream position; meaningful only when faulted
	ECCCorrected uint64
	ECCUncorrect uint64
	SilentFaults uint64
}

// ChannelState is one DRAM channel's serializable state.
type ChannelState struct {
	Port    sim.PortState
	OpenRow uint64
	HasRow  bool

	RowHits   uint64
	RowMisses uint64
	Bytes     uint64
}

// SystemState is the whole memory system's serializable state.
type SystemState struct {
	Prefetch bool
	Faulted  bool
	Modules  []ModuleState
	Channels []ChannelState
}

// CaptureState captures the system's state. Safe only when the machine
// is quiescent (no shard is touching modules), like the aggregate
// statistics methods.
func (s *System) CaptureState() SystemState {
	st := SystemState{
		Prefetch: s.Prefetch,
		Faulted:  s.faulted,
		Modules:  make([]ModuleState, len(s.modules)),
		Channels: make([]ChannelState, len(s.channels)),
	}
	for i := range s.modules {
		m := &s.modules[i]
		ms := ModuleState{
			Port:         m.port.State(),
			UseTick:      ways,
			Hits:         m.hits,
			Misses:       m.misses,
			Writebacks:   m.writebacks,
			QueueDelay:   m.queueDelay,
			Prefetches:   m.prefetches,
			ECCCorrected: m.eccCorrected,
			ECCUncorrect: m.eccUncorrect,
			SilentFaults: m.silentFaults,
		}
		if m.faultStream != nil {
			ms.FaultStream = m.faultStream.State()
		}
		ms.Lines = make([]LineState, len(m.ways))
		for si, o := range m.lru {
			for p := range ways {
				w := int(o >> (2 * p) & 3)
				k := si*ways + w
				if v := m.ways[k]; v != 0 {
					ms.Lines[k] = LineState{Tag: tagOf(v), Valid: true,
						Dirty: v&dirtyBit != 0, Used: uint64(ways - p)}
				}
			}
		}
		st.Modules[i] = ms
	}
	for i := range s.channels {
		ch := &s.channels[i]
		st.Channels[i] = ChannelState{
			Port:    ch.port.State(),
			OpenRow: ch.openRow,
			HasRow:  ch.hasRow,
			RowHits: ch.RowHits, RowMisses: ch.RowMisses, Bytes: ch.Bytes,
		}
	}
	return st
}

// RestoreState restores a captured state onto a system built from the
// same configuration. If the captured run had DRAM fault injection
// armed, the caller must have armed this system with the same plan
// first (EnableFaults owns the rate parameters; this method restores
// only the stream positions).
func (s *System) RestoreState(st SystemState) error {
	if len(st.Modules) != len(s.modules) {
		return fmt.Errorf("mem: restore with %d module states onto %d modules", len(st.Modules), len(s.modules))
	}
	if len(st.Channels) != len(s.channels) {
		return fmt.Errorf("mem: restore with %d channel states onto %d channels", len(st.Channels), len(s.channels))
	}
	if st.Faulted != s.faulted {
		return fmt.Errorf("mem: restore fault-injection mismatch (checkpoint faulted=%v, system faulted=%v); arm EnableFaults with the captured plan before restoring", st.Faulted, s.faulted)
	}
	for i := range s.modules {
		if got, want := len(st.Modules[i].Lines), len(s.modules[i].ways); got != want {
			return fmt.Errorf("mem: restore module %d with %d lines, geometry has %d", i, got, want)
		}
	}
	for i := range s.modules {
		m := &s.modules[i]
		ms := &st.Modules[i]
		m.port.RestoreState(ms.Port)
		m.hits, m.misses, m.writebacks = ms.Hits, ms.Misses, ms.Writebacks
		m.queueDelay, m.prefetches = ms.QueueDelay, ms.Prefetches
		m.eccCorrected, m.eccUncorrect, m.silentFaults = ms.ECCCorrected, ms.ECCUncorrect, ms.SilentFaults
		if m.faultStream != nil {
			m.faultStream.SetState(ms.FaultStream)
		}
		for k, l := range ms.Lines {
			m.ways[k] = 0
			if l.Valid {
				m.ways[k] = wayOf(l.Tag)
				if l.Dirty {
					m.ways[k] |= dirtyBit
				}
			}
		}
		for si := range m.lru {
			m.lru[si] = lruOrder((*[ways]LineState)(ms.Lines[si*ways:]))
		}
	}
	for i := range s.channels {
		ch := &s.channels[i]
		cs := &st.Channels[i]
		ch.port.RestoreState(cs.Port)
		ch.openRow, ch.hasRow = cs.OpenRow, cs.HasRow
		ch.RowHits, ch.RowMisses, ch.Bytes = cs.RowHits, cs.RowMisses, cs.Bytes
	}
	s.Prefetch = st.Prefetch
	return nil
}

// lruOrder returns the LRU order byte of a set whose ways carry the
// given stamps: the valid ways by descending stamp, the higher-numbered
// first among equals, so the least recently used is the lowest-numbered
// way with the smallest stamp; then the invalid ways in an empty set's
// order, so fills take them first, in the timestamp scan's order.
func lruOrder(set *[ways]LineState) uint8 {
	var by [ways]int // way numbers, most recently used first
	n := 0
	for w := range ways {
		if !set[w].Valid {
			continue
		}
		p := n
		for ; p > 0 && set[by[p-1]].Used <= set[w].Used; p-- {
			by[p] = by[p-1]
		}
		by[p] = w
		n++
	}
	for p := range ways {
		if w := int(lruEmpty >> (2 * p) & 3); !set[w].Valid {
			by[n] = w
			n++
		}
	}
	var o uint8
	for p, w := range by {
		o |= uint8(w) << (2 * p)
	}
	return o
}
