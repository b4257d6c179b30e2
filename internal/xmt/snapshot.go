package xmt

// Resource-utilization observation: cumulative busy counters captured
// before and after a region (typically one parallel section or one FFT
// phase) yield per-resource utilization, the measurements behind the
// Roofline placement discussion of §VI-B.

import "xmtfft/internal/stats"

// Snapshot captures cumulative resource-busy counters at one cycle.
type Snapshot struct {
	Cycle      uint64
	FPUBusy    uint64 // slots consumed across all cluster FPUs
	LSUBusy    uint64 // slots consumed across all cluster LSU ports
	DRAMBusy   uint64 // slots consumed across all DRAM channels
	NoCPackets uint64
}

// Snapshot returns the machine's cumulative counters now. The cluster
// ports live on the shards; reading them is safe at spawn boundaries
// and window barriers, where all shards are parked.
func (m *Machine) Snapshot() Snapshot {
	s := Snapshot{Cycle: m.Now(), NoCPackets: m.network.Packets(),
		DRAMBusy: m.memory.ChannelBusy()}
	for _, sh := range m.shards {
		s.FPUBusy += sh.fpu.Busy
		s.LSUBusy += sh.lsu.Busy
	}
	return s
}

// UtilizationSince computes utilization between an earlier snapshot and
// now; an interval of no cycles reads zero. UtilizationSince(Snapshot{})
// is the machine's lifetime utilization.
func (m *Machine) UtilizationSince(prev Snapshot) stats.Util {
	cur := m.Snapshot()
	cycles := cur.Cycle - prev.Cycle
	if cycles == 0 {
		return stats.Util{}
	}
	cfg := m.cfg
	frac := func(busy, unitsPerCycle uint64) float64 {
		return float64(busy) / (float64(cycles) * float64(unitsPerCycle))
	}
	return stats.Util{
		FPU:  frac(cur.FPUBusy-prev.FPUBusy, uint64(cfg.Clusters*cfg.FPUsPerCluster)),
		LSU:  frac(cur.LSUBusy-prev.LSUBusy, uint64(cfg.Clusters*cfg.LSUsPerCluster)),
		DRAM: frac(cur.DRAMBusy-prev.DRAMBusy, uint64(cfg.DRAMChannels())),
	}
}
