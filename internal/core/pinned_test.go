package core

import (
	"fmt"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/fault"
	"xmtfft/internal/fft"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

// pinnedFaults is the fault plan of the table's fault row: NoC drops and
// corruption recovered by retransmit, corrected DRAM bit errors, and one
// fail-stopped cluster.
var pinnedFaults = fault.Plan{Seed: 3, NoCDrop: 0.02, NoCCorrupt: 0.01, DRAMBitErr: 0.02, KillClusters: []int{1}}

// TestPinnedCyclesCountersAndSimStats pins the simulated machine and the
// engine's work on a grid of 3D FFTs — 4k scaled to 64, 256 and 1024
// TCUs at n = 8, 16 and 32, plus one row under pinnedFaults. Any change
// to cycles, counters or SimStats fails here, including a regression in
// boundary-message traffic: an earlier sharded design sent 1.86M
// messages where 112k suffice. The 4k/64 n=8 row also pins the adaptive
// window driver to the fixed-window reference, which gave the same
// 14,865 cycles and counters on this FFT.
func TestPinnedCyclesCountersAndSimStats(t *testing.T) {
	rows := []struct {
		tcus, n int
		faults  bool
		cycles  uint64
		sim     xmt.SimStats
		ops     stats.Counters
	}{
		{tcus: 64, n: 8, cycles: 14865, sim: xmt.SimStats{Events: 624, Windows: 392, Barriers: 219, Messages: 624}, ops: stats.Counters{FPOps: 21696, ALUOps: 3168, Loads: 5760, Stores: 3120, Threads: 216, Spawns: 6, CacheHits: 8622, CacheMisses: 258, DRAMBytes: 8256, NoCPackets: 14640, RowHits: 223, RowMisses: 35}},
		{tcus: 64, n: 16, cycles: 125517, sim: xmt.SimStats{Events: 23226, Windows: 9484, Barriers: 7973, Messages: 23268}, ops: stats.Counters{FPOps: 229248, ALUOps: 123258, Loads: 83028, Stores: 49332, PSOps: 7296, Threads: 7776, Spawns: 12, CacheHits: 127558, CacheMisses: 4802, DRAMBytes: 218080, NoCPackets: 215388, RowHits: 1877, RowMisses: 4938}},
		{tcus: 64, n: 32, cycles: 1459371, sim: xmt.SimStats{Events: 110964, Windows: 90652, Barriers: 65190, Messages: 111048}, ops: stats.Counters{FPOps: 2215680, ALUOps: 590580, Loads: 712872, Stores: 393576, PSOps: 36480, Threads: 37056, Spawns: 12, CacheHits: 947714, CacheMisses: 158734, DRAMBytes: 8575456, NoCPackets: 1819320, RowHits: 35520, RowMisses: 232463}},
		{tcus: 256, n: 8, cycles: 17689, sim: xmt.SimStats{Events: 768, Windows: 435, Barriers: 291, Messages: 768}, ops: stats.Counters{FPOps: 24576, ALUOps: 3456, Loads: 5760, Stores: 3264, Threads: 288, Spawns: 6, CacheHits: 8760, CacheMisses: 264, DRAMBytes: 8448, NoCPackets: 14784, RowHits: 229, RowMisses: 35}},
		{tcus: 256, n: 16, cycles: 45874, sim: xmt.SimStats{Events: 23412, Windows: 3903, Barriers: 3441, Messages: 23496}, ops: stats.Counters{FPOps: 231168, ALUOps: 123636, Loads: 83112, Stores: 49512, PSOps: 6144, Threads: 7872, Spawns: 12, CacheHits: 130568, CacheMisses: 2056, DRAMBytes: 65792, NoCPackets: 215736, RowHits: 1604, RowMisses: 452}},
		{tcus: 256, n: 32, cycles: 590960, sim: xmt.SimStats{Events: 110964, Windows: 45813, Barriers: 40247, Messages: 111048}, ops: stats.Counters{FPOps: 2215680, ALUOps: 590580, Loads: 712872, Stores: 393576, PSOps: 35328, Threads: 37056, Spawns: 12, CacheHits: 1010315, CacheMisses: 96133, DRAMBytes: 4644000, NoCPackets: 1819320, RowHits: 26522, RowMisses: 118603}},
		{tcus: 1024, n: 8, cycles: 16985, sim: xmt.SimStats{Events: 1344, Windows: 405, Barriers: 291, Messages: 1344}, ops: stats.Counters{FPOps: 36096, ALUOps: 4608, Loads: 5760, Stores: 3840, Threads: 576, Spawns: 6, CacheHits: 9312, CacheMisses: 288, DRAMBytes: 9216, NoCPackets: 15360, RowHits: 150, RowMisses: 138}},
		{tcus: 1024, n: 16, cycles: 27433, sim: xmt.SimStats{Events: 24528, Windows: 1580, Barriers: 1279, Messages: 24864}, ops: stats.Counters{FPOps: 242688, ALUOps: 125904, Loads: 83616, Stores: 50592, PSOps: 3072, Threads: 8448, Spawns: 12, CacheHits: 132128, CacheMisses: 2080, DRAMBytes: 66560, NoCPackets: 217824, RowHits: 1104, RowMisses: 976}},
		{tcus: 1024, n: 32, cycles: 96302, sim: xmt.SimStats{Events: 112080, Windows: 8669, Barriers: 8270, Messages: 112416}, ops: stats.Counters{FPOps: 2227200, ALUOps: 592848, Loads: 713376, Stores: 394656, PSOps: 30720, Threads: 37632, Spawns: 12, CacheHits: 1091616, CacheMisses: 16416, DRAMBytes: 525312, NoCPackets: 1821408, RowHits: 7006, RowMisses: 9410}},
		{tcus: 256, n: 16, faults: true, cycles: 47222, sim: xmt.SimStats{Events: 23412, Windows: 4030, Barriers: 3532, Messages: 23496}, ops: stats.Counters{FPOps: 231168, ALUOps: 123636, Loads: 83112, Stores: 49512, PSOps: 6336, Threads: 7872, Spawns: 12, CacheHits: 130568, CacheMisses: 2056, DRAMBytes: 65792, NoCPackets: 219897, RowHits: 1547, RowMisses: 509, NoCDropped: 2799, NoCCorrupted: 1362, NoCRetransmits: 4161, ECCCorrected: 40}},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("tcus=%d/n=%d/faults=%v/workers=1", r.tcus, r.n, r.faults), func(t *testing.T) {
			cfg, err := config.FourK().Scaled(r.tcus)
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
		})
	}
}

func fillTest(data []complex64) {
	for i := range data {
		data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
}
