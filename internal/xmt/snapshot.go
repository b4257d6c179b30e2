package xmt

// Resource-utilization observation: cumulative busy counters captured
// before and after a region (typically one parallel section or one FFT
// phase) yield per-resource utilization, the measurements behind the
// Roofline placement discussion of §VI-B.

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

// Utilization is the fraction of available slots used per resource over
// an interval (0..1; a resource near 1 is the binding one).
type Utilization struct {
	Cycles uint64
	FPU    float64
	LSU    float64
	DRAM   float64
}

// UtilizationSince computes utilization between an earlier snapshot and
// now.
func (m *Machine) UtilizationSince(prev Snapshot) Utilization {
	cur := m.Snapshot()
	cycles := cur.Cycle - prev.Cycle
	if cycles == 0 {
		return Utilization{}
	}
	cfg := m.cfg
	frac := func(busy, unitsPerCycle uint64) float64 {
		return float64(busy) / (float64(cycles) * float64(unitsPerCycle))
	}
	return Utilization{
		Cycles: cycles,
		FPU:    frac(cur.FPUBusy-prev.FPUBusy, uint64(cfg.Clusters*cfg.FPUsPerCluster)),
		LSU:    frac(cur.LSUBusy-prev.LSUBusy, uint64(cfg.Clusters*cfg.LSUsPerCluster)),
		DRAM:   frac(cur.DRAMBusy-prev.DRAMBusy, uint64(cfg.DRAMChannels())),
	}
}
