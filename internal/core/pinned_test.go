package core

import (
	"fmt"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/fault"
	"xmtfft/internal/fft"
	"xmtfft/internal/noc"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

// pinnedFaults is the fault plan of the table's fault row: NoC drops and
// corruption recovered by retransmit, corrected DRAM bit errors, and one
// fail-stopped cluster.
var pinnedFaults = fault.Plan{Seed: 3, NoCDrop: 0.02, NoCCorrupt: 0.01, DRAMBitErr: 0.02, KillClusters: []int{1}}

// memStats is the memory system's tallies that Counters does not carry.
type memStats struct {
	QueueDelay, ChannelBusy, Writebacks uint64
}

// TestPinnedCyclesCountersAndSimStats pins the simulated machine and the
// engine's work on a grid of 3D FFTs — 4k scaled to 64, 256 and 1024
// TCUs at n = 8, 16 and 32, plus one row under pinnedFaults. Any change
// to cycles, counters or SimStats fails here, including a regression in
// boundary-message traffic: an earlier sharded design sent 1.86M
// messages where 112k suffice. Each row also pins the module-port queue
// delay, DRAM channel busy slots, writebacks and butterfly blocked
// cycles, which Counters does not carry and the coordinator's closed
// forms for same-line followers write. The 4k/64 n=8 row also pins the adaptive
// window driver to the fixed-window reference, which gave the same
// 14,865 cycles and counters on this FFT.
//
// 4k has a pure mesh-of-trees network and one FPU per cluster, so four
// rows reach the paths its grid never does: 64k scaled to 1024 TCUs
// (hybrid MoT+butterfly network; n=64 is the xmtperf sim-64k-dram
// shape) and 128k x4 and x2 at 256 TCUs (FPU width 4 and 2, so a wide
// Port.GrantNLast per thread segment).
func TestPinnedCyclesCountersAndSimStats(t *testing.T) {
	rows := []struct {
		config  string // paper configuration to scale; "" is 4k
		tcus, n int
		faults  bool
		cycles  uint64
		mem     memStats
		blocked uint64 // noc.Hybrid.Blocked; 0 on a mesh-of-trees
		sim     xmt.SimStats
		ops     stats.Counters
	}{
		{tcus: 64, n: 8, cycles: 14865, mem: memStats{QueueDelay: 2440462, ChannelBusy: 1032, Writebacks: 0}, blocked: 0, sim: xmt.SimStats{Events: 624, Windows: 392, Barriers: 219, Messages: 624}, ops: stats.Counters{FPOps: 21696, ALUOps: 3168, Loads: 5760, Stores: 3120, Threads: 216, Spawns: 6, CacheHits: 8622, CacheMisses: 258, DRAMBytes: 8256, NoCPackets: 14640, RowHits: 223, RowMisses: 35}},
		{tcus: 64, n: 16, cycles: 125517, mem: memStats{QueueDelay: 14010314, ChannelBusy: 27260, Writebacks: 2013}, blocked: 0, sim: xmt.SimStats{Events: 23226, Windows: 9484, Barriers: 7973, Messages: 23268}, ops: stats.Counters{FPOps: 229248, ALUOps: 123258, Loads: 83028, Stores: 49332, PSOps: 7296, Threads: 7776, Spawns: 12, CacheHits: 127558, CacheMisses: 4802, DRAMBytes: 218080, NoCPackets: 215388, RowHits: 1877, RowMisses: 4938}},
		{tcus: 64, n: 32, cycles: 1459371, mem: memStats{QueueDelay: 8488710, ChannelBusy: 1071932, Writebacks: 109249}, blocked: 0, sim: xmt.SimStats{Events: 110964, Windows: 90652, Barriers: 65190, Messages: 111048}, ops: stats.Counters{FPOps: 2215680, ALUOps: 590580, Loads: 712872, Stores: 393576, PSOps: 36480, Threads: 37056, Spawns: 12, CacheHits: 947714, CacheMisses: 158734, DRAMBytes: 8575456, NoCPackets: 1819320, RowHits: 35520, RowMisses: 232463}},
		{tcus: 256, n: 8, cycles: 17689, mem: memStats{QueueDelay: 1507880, ChannelBusy: 1056, Writebacks: 0}, blocked: 0, sim: xmt.SimStats{Events: 768, Windows: 435, Barriers: 291, Messages: 768}, ops: stats.Counters{FPOps: 24576, ALUOps: 3456, Loads: 5760, Stores: 3264, Threads: 288, Spawns: 6, CacheHits: 8760, CacheMisses: 264, DRAMBytes: 8448, NoCPackets: 14784, RowHits: 229, RowMisses: 35}},
		{tcus: 256, n: 16, cycles: 45874, mem: memStats{QueueDelay: 60223804, ChannelBusy: 8224, Writebacks: 0}, blocked: 0, sim: xmt.SimStats{Events: 23412, Windows: 3903, Barriers: 3441, Messages: 23496}, ops: stats.Counters{FPOps: 231168, ALUOps: 123636, Loads: 83112, Stores: 49512, PSOps: 6144, Threads: 7872, Spawns: 12, CacheHits: 130568, CacheMisses: 2056, DRAMBytes: 65792, NoCPackets: 215736, RowHits: 1604, RowMisses: 452}},
		{tcus: 256, n: 32, cycles: 590960, mem: memStats{QueueDelay: 52932826, ChannelBusy: 580500, Writebacks: 48992}, blocked: 0, sim: xmt.SimStats{Events: 110964, Windows: 45813, Barriers: 40247, Messages: 111048}, ops: stats.Counters{FPOps: 2215680, ALUOps: 590580, Loads: 712872, Stores: 393576, PSOps: 35328, Threads: 37056, Spawns: 12, CacheHits: 1010315, CacheMisses: 96133, DRAMBytes: 4644000, NoCPackets: 1819320, RowHits: 26522, RowMisses: 118603}},
		{tcus: 1024, n: 8, cycles: 16985, mem: memStats{QueueDelay: 733356, ChannelBusy: 1152, Writebacks: 0}, blocked: 0, sim: xmt.SimStats{Events: 1344, Windows: 405, Barriers: 291, Messages: 1344}, ops: stats.Counters{FPOps: 36096, ALUOps: 4608, Loads: 5760, Stores: 3840, Threads: 576, Spawns: 6, CacheHits: 9312, CacheMisses: 288, DRAMBytes: 9216, NoCPackets: 15360, RowHits: 150, RowMisses: 138}},
		{tcus: 1024, n: 16, cycles: 27433, mem: memStats{QueueDelay: 40876670, ChannelBusy: 8320, Writebacks: 0}, blocked: 0, sim: xmt.SimStats{Events: 24528, Windows: 1580, Barriers: 1279, Messages: 24864}, ops: stats.Counters{FPOps: 242688, ALUOps: 125904, Loads: 83616, Stores: 50592, PSOps: 3072, Threads: 8448, Spawns: 12, CacheHits: 132128, CacheMisses: 2080, DRAMBytes: 66560, NoCPackets: 217824, RowHits: 1104, RowMisses: 976}},
		{tcus: 1024, n: 32, cycles: 96302, mem: memStats{QueueDelay: 563089216, ChannelBusy: 65664, Writebacks: 0}, blocked: 0, sim: xmt.SimStats{Events: 112080, Windows: 8669, Barriers: 8270, Messages: 112416}, ops: stats.Counters{FPOps: 2227200, ALUOps: 592848, Loads: 713376, Stores: 394656, PSOps: 30720, Threads: 37632, Spawns: 12, CacheHits: 1091616, CacheMisses: 16416, DRAMBytes: 525312, NoCPackets: 1821408, RowHits: 7006, RowMisses: 9410}},
		{config: config.Name64K, tcus: 1024, n: 32, cycles: 100794, mem: memStats{QueueDelay: 564448808, ChannelBusy: 65664, Writebacks: 0}, blocked: 122027990, sim: xmt.SimStats{Events: 112080, Windows: 8998, Barriers: 8524, Messages: 112416}, ops: stats.Counters{FPOps: 2227200, ALUOps: 592848, Loads: 713376, Stores: 394656, PSOps: 30720, Threads: 37632, Spawns: 12, CacheHits: 1091616, CacheMisses: 16416, DRAMBytes: 525312, NoCPackets: 1821408, RowHits: 6988, RowMisses: 9428}},
		{config: config.Name64K, tcus: 1024, n: 64, cycles: 1173418, mem: memStats{QueueDelay: 2301442060, ChannelBusy: 4608504, Writebacks: 375631}, blocked: 217220662, sim: xmt.SimStats{Events: 591312, Windows: 105699, Barriers: 101820, Messages: 591648}, ops: stats.Counters{FPOps: 21249024, ALUOps: 3148752, Loads: 5898912, Stores: 3147168, PSOps: 190464, Threads: 197376, Spawns: 12, CacheHits: 8269585, CacheMisses: 776495, DRAMBytes: 36868032, NoCPackets: 14944992, RowHits: 154057, RowMisses: 998069}},
		{config: config.Name128Kx4, tcus: 256, n: 16, cycles: 40853, mem: memStats{QueueDelay: 71592396, ChannelBusy: 8224, Writebacks: 0}, blocked: 19745708, sim: xmt.SimStats{Events: 23412, Windows: 3595, Barriers: 3277, Messages: 23496}, ops: stats.Counters{FPOps: 231168, ALUOps: 123636, Loads: 83112, Stores: 49512, PSOps: 6144, Threads: 7872, Spawns: 12, CacheHits: 130568, CacheMisses: 2056, DRAMBytes: 65792, NoCPackets: 215736, RowHits: 1043, RowMisses: 1013}},
		{config: config.Name128Kx2, tcus: 256, n: 16, cycles: 42271, mem: memStats{QueueDelay: 68470078, ChannelBusy: 8224, Writebacks: 0}, blocked: 16382502, sim: xmt.SimStats{Events: 23412, Windows: 3695, Barriers: 3240, Messages: 23496}, ops: stats.Counters{FPOps: 231168, ALUOps: 123636, Loads: 83112, Stores: 49512, PSOps: 6144, Threads: 7872, Spawns: 12, CacheHits: 130568, CacheMisses: 2056, DRAMBytes: 65792, NoCPackets: 215736, RowHits: 1395, RowMisses: 661}},
		{tcus: 256, n: 16, faults: true, cycles: 47222, mem: memStats{QueueDelay: 49480488, ChannelBusy: 8224, Writebacks: 0}, blocked: 0, sim: xmt.SimStats{Events: 23412, Windows: 4030, Barriers: 3532, Messages: 23496}, ops: stats.Counters{FPOps: 231168, ALUOps: 123636, Loads: 83112, Stores: 49512, PSOps: 6336, Threads: 7872, Spawns: 12, CacheHits: 130568, CacheMisses: 2056, DRAMBytes: 65792, NoCPackets: 219897, RowHits: 1547, RowMisses: 509, NoCDropped: 2799, NoCCorrupted: 1362, NoCRetransmits: 4161, ECCCorrected: 40}},
	}
	for _, r := range rows {
		name := fmt.Sprintf("tcus=%d/n=%d/faults=%v/workers=1", r.tcus, r.n, r.faults)
		base := config.FourK()
		if r.config != "" {
			name = r.config + "/" + name
			var err error
			if base, err = config.ByName(r.config); err != nil {
				t.Fatal(err)
			}
		}
		t.Run(name, func(t *testing.T) {
			cfg, err := base.Scaled(r.tcus)
			if err != nil {
				t.Fatal(err)
			}
			m, err := xmt.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.faults {
				if err := m.EnableFaults(pinnedFaults); err != nil {
					t.Fatal(err)
				}
			}
			tr, err := New3D(m, r.n, r.n, r.n)
			if err != nil {
				t.Fatal(err)
			}
			fillTest(tr.Data)
			run, err := tr.Run(fft.Forward)
			if err != nil {
				t.Fatal(err)
			}
			if got := run.TotalCycles(); got != r.cycles {
				t.Errorf("cycles = %d, want %d", got, r.cycles)
			}
			if got := m.SimStats(); got != r.sim {
				t.Errorf("SimStats = %+v, want %+v", got, r.sim)
			}
			if m.Counters != r.ops {
				t.Errorf("counters diverged\n got %+v\nwant %+v", m.Counters, r.ops)
			}
			mm := m.Memory()
			if got := (memStats{mm.QueueDelay(), mm.ChannelBusy(), mm.Writebacks()}); got != r.mem {
				t.Errorf("memory stats = %+v, want %+v", got, r.mem)
			}
			var blocked uint64
			nw := m.Network()
			if rel, ok := nw.(*noc.Reliable); ok {
				nw = rel.Inner()
			}
			if h, ok := nw.(*noc.Hybrid); ok {
				blocked = h.Blocked
			}
			if blocked != r.blocked {
				t.Errorf("NoC blocked cycles = %d, want %d", blocked, r.blocked)
			}
		})
	}
}

func fillTest(data []complex64) {
	for i := range data {
		data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
}
