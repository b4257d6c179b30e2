package xmt_test

import (
	"fmt"
	"reflect"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fault"
	"xmtfft/internal/fft"
	"xmtfft/internal/noc"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

// runResult is everything a simulated FFT yields that runs could move.
type runResult struct {
	run  stats.Run
	data []complex64
	tallies
}

// tallies are the machine's counters, the engine's statistics and the
// memory system's and NoC's own tallies (blocked is 0 on a
// mesh-of-trees).
type tallies struct {
	counters                                       stats.Counters
	sim                                            xmt.SimStats
	queue, busy, writebacks, hits, misses, blocked uint64
}

func simulateFFT(t *testing.T, cfg config.Config, n int, plan fault.Plan, perWord bool) runResult {
	t.Helper()
	m, err := xmt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	xmt.ServePerWord(m, perWord)
	if plan.Active() {
		if err := m.EnableFaults(plan); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := core.New3D(m, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Data {
		tr.Data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
	run, err := tr.Run(fft.Forward)
	if err != nil {
		t.Fatal(err)
	}
	mm := m.Memory()
	r := runResult{run: run, data: tr.Data, tallies: tallies{counters: m.Counters, sim: m.SimStats(),
		queue: mm.QueueDelay(), busy: mm.ChannelBusy(), writebacks: mm.Writebacks(),
		hits: mm.Hits(), misses: mm.Misses()}}
	nw := m.Network()
	if rel, ok := nw.(*noc.Reliable); ok {
		nw = rel.Inner()
	}
	if h, ok := nw.(*noc.Hybrid); ok {
		r.blocked = h.Blocked
	}
	return r
}

// TestRunsMatchPerWordService holds same-line runs, served by the
// closed forms, to per-word service on the general path: on the grid of
// TestPinnedCyclesCountersAndSimStats (4k at 64, 256 and 1024 TCUs;
// 64k at 1024 TCUs, a hybrid NoC, at n = 32 and at the sim-64k-dram
// shape n = 64; 128k x4 and x2 at 256 TCUs), under a DRAM-fault plan
// with a killed cluster, and with two LSUs per cluster, where words of
// a group share issue cycles and only some same-line words join a run,
// the per-phase records, the FFT output, the counters, the engine
// statistics and the memory and NoC tallies must be equal. (The pinned
// table's NoC-fault row sends every word on its own either way.)
func TestRunsMatchPerWordService(t *testing.T) {
	dram := fault.Plan{Seed: 3, DRAMBitErr: 0.02, DRAMDoubleBitErr: 0.005, KillClusters: []int{1}}
	rows := []struct {
		config  string
		tcus, n int
		plan    fault.Plan
		lsus    int // LSUs per cluster when not the configuration's
	}{
		{config.Name4K, 64, 8, fault.Plan{}, 0},
		{config.Name4K, 64, 16, fault.Plan{}, 0},
		{config.Name4K, 64, 32, fault.Plan{}, 0},
		{config.Name4K, 256, 8, fault.Plan{}, 0},
		{config.Name4K, 256, 16, fault.Plan{}, 0},
		{config.Name4K, 256, 32, fault.Plan{}, 0},
		{config.Name4K, 1024, 8, fault.Plan{}, 0},
		{config.Name4K, 1024, 16, fault.Plan{}, 0},
		{config.Name4K, 1024, 32, fault.Plan{}, 0},
		{config.Name64K, 1024, 32, fault.Plan{}, 0},
		{config.Name64K, 1024, 64, fault.Plan{}, 0},
		{config.Name128Kx4, 256, 16, fault.Plan{}, 0},
		{config.Name128Kx2, 256, 16, fault.Plan{}, 0},
		{config.Name4K, 256, 16, dram, 0},
		{config.Name64K, 1024, 16, dram, 0},
		{config.Name4K, 256, 16, fault.Plan{}, 2},
		{config.Name64K, 1024, 32, fault.Plan{}, 2},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%s/tcus=%d/n=%d/faults=%v/lsus=%d", r.config, r.tcus, r.n, r.plan.Active(), r.lsus), func(t *testing.T) {
			base, err := config.ByName(r.config)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := base.Scaled(r.tcus)
			if err != nil {
				t.Fatal(err)
			}
			if r.lsus > 0 {
				cfg.LSUsPerCluster = r.lsus
			}
			runs := simulateFFT(t, cfg, r.n, r.plan, false)
			words := simulateFFT(t, cfg, r.n, r.plan, true)
			if !reflect.DeepEqual(runs.run, words.run) {
				t.Errorf("phase records differ\n runs: %+v\nwords: %+v", runs.run.Phases, words.run.Phases)
			}
			if !reflect.DeepEqual(runs.data, words.data) {
				t.Error("FFT outputs differ")
			}
			if runs.tallies != words.tallies {
				t.Errorf("tallies differ\n runs: %+v\nwords: %+v", runs.tallies, words.tallies)
			}
			if r.plan.DRAMBitErr > 0 && runs.counters.ECCCorrected == 0 {
				t.Error("the DRAM-fault plan corrected no bit error")
			}
		})
	}
}
