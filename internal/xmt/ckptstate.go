package xmt

// Checkpoint state capture for the whole machine (internal/ckpt).
// Capturable only at spawn boundaries — the machine's quiescent points,
// where no parallel section is active, every shard queue is drained and
// every shard is parked. At such a point a machine's future behaviour is
// fully determined by the clocks, resource-port occupancy, counters,
// memory/NoC state and fault-stream positions captured here; thread
// programs and TCU scratch state are per-section and never cross a
// boundary. See DESIGN.md §12.

import (
	"fmt"

	"xmtfft/internal/mem"
	"xmtfft/internal/noc"
	"xmtfft/internal/sim"
	"xmtfft/internal/stats"
)

// PortTriple is the serializable state of one cluster's shared
// functional-unit ports.
type PortTriple struct {
	FPU sim.PortState
	LSU sim.PortState
	MDU sim.PortState
}

// ShardMachineState is one cluster-shard's serializable state.
type ShardMachineState struct {
	Ports    PortTriple
	Counters stats.Counters
}

// MachineState is the complete serializable state of a quiescent
// Machine.
type MachineState struct {
	// Parallel is the engine state. It is nil only in states written by
	// the removed legacy serial engine, which cannot be restored.
	Parallel *sim.ParallelEngineState

	Now    uint64              // machine clock
	PSOps  uint64              // coordinator's prefix-sum tally
	Shards []ShardMachineState // per-shard ports and counters

	Counters stats.Counters
	Memory   mem.SystemState
	Network  noc.State
	Dead     []bool // fail-stopped clusters (nil = all alive)

	// Watchdog state: window 0 means no watchdog was installed.
	WatchdogWindow uint64
	WatchdogLast   uint64
}

// CaptureState captures the machine's state at a spawn boundary. It
// fails if a parallel section is active or the engine has pending
// events (i.e. the machine is not at a quiescent point, e.g. after a
// watchdog abort poisoned it).
func (m *Machine) CaptureState() (*MachineState, error) {
	if m.prog != nil || m.outstanding != 0 {
		return nil, fmt.Errorf("xmt: capture while a parallel section is active")
	}
	es, err := m.eng.CaptureState()
	if err != nil {
		return nil, err
	}
	st := &MachineState{Parallel: &es, Now: m.now, PSOps: m.psOps, Counters: m.Counters,
		Shards: make([]ShardMachineState, len(m.shards))}
	for i, sh := range m.shards {
		st.Shards[i] = ShardMachineState{
			Ports:    PortTriple{FPU: sh.fpu.State(), LSU: sh.lsu.State(), MDU: sh.mdu.State()},
			Counters: sh.counters,
		}
	}
	st.Memory = m.memory.CaptureState()
	ns, err := noc.CaptureState(m.network)
	if err != nil {
		return nil, err
	}
	st.Network = ns
	if m.dead != nil {
		st.Dead = append([]bool(nil), m.dead...)
	}
	if m.wd != nil {
		st.WatchdogWindow = m.wd.Window
		st.WatchdogLast = m.wd.LastProgress()
	}
	return st, nil
}

// RestoreState restores a captured state onto a freshly built machine of
// the same configuration. If the captured run had fault injection armed,
// the caller must have armed this machine with the same plan
// (EnableFaults) before restoring — the plan owns rates and schedules;
// this method restores stream positions and tallies. A captured
// watchdog is reinstalled with its progress mark (overriding any
// watchdog the caller set).
func (m *Machine) RestoreState(st *MachineState) error {
	if m.prog != nil || m.outstanding != 0 {
		return fmt.Errorf("xmt: restore while a parallel section is active")
	}
	if st.Parallel == nil {
		return fmt.Errorf("xmt: machine state has no engine state (written by the removed legacy serial engine?)")
	}
	if len(st.Shards) != len(m.shards) {
		return fmt.Errorf("xmt: restore with %d shard states onto %d shards", len(st.Shards), len(m.shards))
	}
	if err := m.eng.RestoreState(*st.Parallel); err != nil {
		return err
	}
	m.now = st.Now
	m.psOps = st.PSOps
	for i, sh := range m.shards {
		ss := &st.Shards[i]
		sh.fpu.RestoreState(ss.Ports.FPU)
		sh.lsu.RestoreState(ss.Ports.LSU)
		sh.mdu.RestoreState(ss.Ports.MDU)
		sh.counters = ss.Counters
	}
	if err := m.memory.RestoreState(st.Memory); err != nil {
		return err
	}
	if err := noc.RestoreState(m.network, st.Network); err != nil {
		return err
	}
	m.Counters = st.Counters
	if st.Dead != nil {
		m.dead = append([]bool(nil), st.Dead...)
	} else {
		m.dead = nil
	}
	if st.WatchdogWindow > 0 {
		m.SetWatchdog(st.WatchdogWindow)
		m.wd.Progress(st.WatchdogLast)
	}
	return nil
}
