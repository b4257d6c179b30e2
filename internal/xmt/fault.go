package xmt

// Fault injection & resilience wiring: translating a fault.Plan into the
// protection mechanisms owned by the subsystems — the NoC retransmit
// wrapper (internal/noc), the DRAM SECDED ECC model (internal/mem),
// spawn-boundary cluster failover (this package) and the livelock
// watchdog (internal/sim). See DESIGN.md §8 for the fault model and the
// three determinism contracts the tests enforce.

import (
	"fmt"

	"xmtfft/internal/fault"
	"xmtfft/internal/mem"
	"xmtfft/internal/noc"
	"xmtfft/internal/sim"
	"xmtfft/internal/trace"
)

// EnableFaults arms the machine with the plan's fault injection and the
// matching protection. It must be called before any parallel section.
// A plan with no active fault is a no-op, preserving the zero-overhead
// contract: the machine's code paths, cycle counts and outputs are then
// bit-identical to a machine that never saw the call.
func (m *Machine) EnableFaults(plan fault.Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	if m.prog != nil || m.outstanding != 0 {
		return fmt.Errorf("xmt: EnableFaults while a parallel section is active")
	}
	if plan.NoCActive() {
		if m.rnet != nil {
			return fmt.Errorf("xmt: NoC fault injection already enabled")
		}
		m.rnet = noc.WrapReliable(m.network, plan.Seed, plan.NoCDrop, plan.NoCCorrupt, plan.NoCDropNth)
		m.network = m.rnet
	}
	if plan.DRAMActive() {
		m.memory.EnableFaults(plan.Seed, plan.DRAMBitErr, plan.DRAMDoubleBitErr, !plan.NoECC)
	}
	return m.KillClusters(plan.KillClusters)
}

// KillClusters fail-stops the listed clusters before the next parallel
// section. Their TCUs are excluded from thread allocation, and the
// dynamic prefix-sum scheme load-balances the full thread range over
// the survivors — graceful degradation with no workload change. Dead
// clusters keep serving the memory modules co-located with them: module
// placement is an address-hash property of the memory system, not of
// the cluster's compute resources.
func (m *Machine) KillClusters(ids []int) error {
	for _, c := range ids {
		if c < 0 || c >= m.cfg.Clusters {
			return fmt.Errorf("xmt: kill cluster %d out of range [0, %d)", c, m.cfg.Clusters)
		}
	}
	if m.prog != nil || m.outstanding != 0 {
		return fmt.Errorf("xmt: KillClusters while a parallel section is active")
	}
	if len(ids) == 0 {
		return nil
	}
	if m.dead == nil {
		m.dead = make([]bool, m.cfg.Clusters)
	}
	for _, c := range ids {
		m.dead[c] = true
	}
	return nil
}

// DeadClusters returns the fail-stopped cluster indices in ascending
// order (nil when all clusters are alive).
func (m *Machine) DeadClusters() []int {
	var out []int
	for c, d := range m.dead {
		if d {
			out = append(out, c)
		}
	}
	return out
}

// SetWatchdog installs a livelock watchdog with the given no-progress
// window in cycles (0 removes it). If simulated time runs more than the
// window past the last progress mark — thread completion, load-group
// completion or section start — the active Spawn aborts with a
// *sim.WatchdogError carrying an engine queue-state dump. The machine
// is left poisoned (its section never joined), so further Spawns fail.
func (m *Machine) SetWatchdog(window uint64) {
	if window == 0 {
		m.wd = nil
	} else {
		m.wd = sim.NewWatchdog(window)
	}
	m.eng.SetWatchdog(m.wd)
}

// runGuarded invokes run, converting a watchdog abort (a typed panic
// from the engine) into an ordinary error. Any other panic is
// re-raised. When an OnWatchdog callback is installed, it fires with the
// error before runGuarded returns — the post-mortem hook.
func (m *Machine) runGuarded(run func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			we, ok := r.(*sim.WatchdogError)
			if !ok {
				panic(r)
			}
			if m.onWatchdog != nil {
				m.onWatchdog(we)
			}
			err = we
		}
	}()
	run()
	return nil
}

// OnWatchdog installs a callback fired when a livelock watchdog abort
// unwinds (nil removes it), before the aborted Spawn returns the
// *sim.WatchdogError. The machine is mid-section and poisoned at that
// point — not at a quiescent point — so the callback must treat it as
// read-only diagnostic state (e.g. write a post-mortem dump file); it
// must not spawn, checkpoint machine state, or expect a later join.
func (m *Machine) OnWatchdog(fn func(*sim.WatchdogError)) { m.onWatchdog = fn }

// traverse sends one request packet, through the retransmit protocol
// when NoC fault injection is armed. ok=false means the protocol gave
// up (pathological loss); the returned cycle is the earliest the caller
// may schedule an event-level retry.
func (m *Machine) traverse(t uint64, src, dst int) (uint64, bool) {
	if m.rnet != nil {
		return m.rnet.TraverseReliable(t, src, dst)
	}
	return m.network.Traverse(t, src, dst), true
}

// aliveTCUs returns the TCU ids eligible for thread assignment, or nil
// when no cluster has failed (the common case stays allocation-free and
// keeps the wave loop's code path identical). All clusters dead is an
// error: the machine cannot run parallel sections at all.
func (m *Machine) aliveTCUs() ([]int, error) {
	if m.dead == nil {
		return nil, nil
	}
	out := make([]int, 0, m.cfg.TCUs)
	for i := 0; i < m.cfg.TCUs; i++ {
		if !m.dead[i/m.cfg.TCUsPerCluster] {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("xmt: all %d clusters have failed; no TCUs available", m.cfg.Clusters)
	}
	return out, nil
}

// emitDeadClusters marks each fail-stopped cluster in the trace at the
// start of a section, so every traced section shows its degraded state.
func (m *Machine) emitDeadClusters(cycle uint64) {
	if m.rec == nil || m.dead == nil {
		return
	}
	for c, d := range m.dead {
		if d {
			m.rec.Fault(cycle, trace.FaultClusterDead, c, 0)
		}
	}
}

// nocFaultObserver adapts a trace recorder to the reliable transport's
// observer callback; a nil recorder yields a nil observer so the
// untraced path stays callback-free.
func nocFaultObserver(rec *trace.Recorder) noc.FaultObserver {
	if rec == nil {
		return nil
	}
	return func(cycle uint64, ev noc.FaultEvent, src, dst, attempt int) {
		var k trace.FaultKind
		switch ev {
		case noc.FaultDrop:
			k = trace.FaultNoCDrop
		case noc.FaultCorrupt:
			k = trace.FaultNoCCorrupt
		case noc.FaultGiveUp:
			k = trace.FaultNoCGiveUp
		default:
			return
		}
		rec.Fault(cycle, k, src, uint64(attempt))
	}
}

// recordMemFault emits the trace event for a faulted memory access.
// Silent faults (ECC off) are, by definition, unobservable by the
// machine and leave no trace event — only the tally in ECCStats.
func recordMemFault(rec *trace.Recorder, cycle uint64, f mem.Fault, module int, addr uint64) {
	if rec == nil || f == mem.FaultNone {
		return
	}
	var k trace.FaultKind
	switch f {
	case mem.FaultECCCorrected:
		k = trace.FaultECCCorrected
	case mem.FaultECCUncorrectable:
		k = trace.FaultECCUncorrectable
	default:
		return
	}
	rec.Fault(cycle, k, module, addr)
}
