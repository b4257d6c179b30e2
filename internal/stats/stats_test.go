package stats

import (
	"encoding/csv"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersAdd(t *testing.T) {
	a := Counters{FPOps: 1, ALUOps: 2, Loads: 3, Stores: 4, PSOps: 5, Threads: 6,
		Spawns: 7, CacheHits: 8, CacheMisses: 9, DRAMBytes: 10, NoCPackets: 11,
		Prefetches: 12, RowHits: 13, RowMisses: 14}
	b := a
	a.Add(b)
	if a.FPOps != 2 || a.NoCPackets != 22 || a.MemOps() != 14 {
		t.Fatalf("after Add: %+v", a)
	}
	if a.Prefetches != 24 || a.RowHits != 26 || a.RowMisses != 28 {
		t.Fatalf("memory counters after Add: %+v", a)
	}
}

func TestHitRate(t *testing.T) {
	c := Counters{CacheHits: 3, CacheMisses: 1}
	if got := c.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %g, want 0.75", got)
	}
	if got := (Counters{}).HitRate(); got != 1 {
		t.Fatalf("empty hit rate = %g, want 1", got)
	}
}

func TestPhaseIntensityAndGFLOPS(t *testing.T) {
	p := Phase{Name: "pass", Cycles: 1000, Ops: Counters{FPOps: 1500, DRAMBytes: 1600}}
	if got := p.Intensity(); math.Abs(got-0.9375) > 1e-12 {
		t.Fatalf("intensity = %g, want 0.9375", got)
	}
	// 1500 flops / 1000 cycles at 3.3 GHz = 4.95 GFLOPS.
	if got := p.GFLOPS(3.3); math.Abs(got-4.95) > 1e-9 {
		t.Fatalf("gflops = %g, want 4.95", got)
	}
	inf := Phase{Ops: Counters{FPOps: 10}}
	if !math.IsInf(inf.Intensity(), 1) {
		t.Fatal("zero-byte phase should have infinite intensity")
	}
	if (Phase{}).GFLOPS(3.3) != 0 {
		t.Fatal("zero-cycle phase should report 0 GFLOPS")
	}
}

func TestRunAggregation(t *testing.T) {
	r := Run{Label: "t", Phases: []Phase{
		{Name: "fft pass 0", Cycles: 10, Ops: Counters{FPOps: 100, DRAMBytes: 50}},
		{Name: "rotate pass 2", Cycles: 30, Ops: Counters{FPOps: 200, DRAMBytes: 400}},
		{Name: "fft pass 1", Cycles: 20, Ops: Counters{FPOps: 300, DRAMBytes: 100}},
	}}
	if r.TotalCycles() != 60 {
		t.Fatalf("total cycles = %d", r.TotalCycles())
	}
	if ops := r.TotalOps(); ops.FPOps != 600 || ops.DRAMBytes != 550 {
		t.Fatalf("total ops = %+v", ops)
	}
	rot := r.Merged("rotation", func(p Phase) bool { return strings.HasPrefix(p.Name, "rotate") })
	if rot.Cycles != 30 || rot.Ops.FPOps != 200 {
		t.Fatalf("rotation merge = %+v", rot)
	}
	all := r.Overall()
	if all.Cycles != 60 || all.Ops.FPOps != 600 {
		t.Fatalf("overall = %+v", all)
	}
	if !strings.Contains(r.String(), "fft pass 0") {
		t.Errorf("String() missing phase: %q", r.String())
	}
}

func TestStandardFFTFlops(t *testing.T) {
	// 512^3 = 2^27 points: 5 * 2^27 * 27 = 18.12 GFLOP, the figure behind
	// Table IV.
	n := 512 * 512 * 512
	got := StandardFFTFlops(n)
	want := 5.0 * float64(n) * 27.0
	if math.Abs(got-want) > 1 {
		t.Fatalf("StandardFFTFlops(512^3) = %g, want %g", got, want)
	}
	if StandardFFTFlops(1) != 0 || StandardFFTFlops(0) != 0 {
		t.Fatal("degenerate sizes should yield 0 flops")
	}
}

func TestStandardGFLOPS(t *testing.T) {
	// If the 18.12 GFLOP FFT takes 0.25e9 cycles at 3.3 GHz (75.76 ms),
	// that is 239.2 GFLOPS -- the paper's 4k figure.
	n := 512 * 512 * 512
	cycles := uint64(250_000_000)
	got := StandardGFLOPS(n, cycles, 3.3)
	want := StandardFFTFlops(n) / float64(cycles) * 3.3
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("StandardGFLOPS = %g, want %g", got, want)
	}
	if got < 230 || got > 250 {
		t.Fatalf("sanity: got %g GFLOPS, expected near 239", got)
	}
	if StandardGFLOPS(n, 0, 3.3) != 0 {
		t.Fatal("zero cycles should yield 0")
	}
}

func TestSeconds(t *testing.T) {
	if got := Seconds(3_300_000_000, 3.3); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("Seconds = %g, want 1.0", got)
	}
}

// TestQuantile pins the nearest-rank rule: the ⌈q·n⌉-th smallest
// sample, the smallest for q·n <= 1 and the largest for q >= 1.
func TestQuantile(t *testing.T) {
	s := []uint64{0, 5, 9, 10, 25, 99}
	for _, c := range []struct {
		q    float64
		want uint64
	}{{0, 0}, {0.1, 0}, {0.25, 5}, {0.5, 9}, {0.51, 10}, {0.95, 99}, {1, 99}, {1.5, 99}} {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("Quantile(%v, %g) = %d, want %d", s, c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{3.5}, 0.99); got != 3.5 {
		t.Errorf("one-sample quantile = %g, want 3.5", got)
	}
}

// Property: quantiles are samples, monotone in q, and q = 1 is the
// largest.
func TestQuantileProperty(t *testing.T) {
	f := func(vals []uint16, a, b uint8) bool {
		if len(vals) == 0 {
			return true
		}
		slices.Sort(vals)
		qa, qb := float64(min(a, b))/255, float64(max(a, b))/255
		lo, hi := Quantile(vals, qa), Quantile(vals, qb)
		return lo <= hi && slices.Contains(vals, lo) && Quantile(vals, 1) == vals[len(vals)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging all phases preserves totals.
func TestMergePreservesTotalsProperty(t *testing.T) {
	f := func(cycles []uint32, flops []uint32) bool {
		n := len(cycles)
		if len(flops) < n {
			n = len(flops)
		}
		r := Run{}
		var wantC, wantF uint64
		for i := 0; i < n; i++ {
			r.Phases = append(r.Phases, Phase{
				Cycles: uint64(cycles[i]),
				Ops:    Counters{FPOps: uint64(flops[i])},
			})
			wantC += uint64(cycles[i])
			wantF += uint64(flops[i])
		}
		all := r.Overall()
		return all.Cycles == wantC && all.Ops.FPOps == wantF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExportJSON(t *testing.T) {
	r := Run{Label: "x", Phases: []Phase{
		{Name: "fft p0", Cycles: 100, Ops: Counters{FPOps: 500, DRAMBytes: 800, CacheHits: 3, CacheMisses: 1}},
		{Name: "rotate", Cycles: 50, Ops: Counters{FPOps: 100}},
	}}
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["total_cycles"].(float64) != 150 {
		t.Errorf("total_cycles = %v", decoded["total_cycles"])
	}
	phases := decoded["phases"].([]any)
	if len(phases) != 2 {
		t.Fatalf("phases = %d", len(phases))
	}
	p0 := phases[0].(map[string]any)
	if p0["intensity_flops_per_byte"].(float64) != 0.625 {
		t.Errorf("intensity = %v", p0["intensity_flops_per_byte"])
	}
	if p0["cache_hit_rate"].(float64) != 0.75 {
		t.Errorf("hit rate = %v", p0["cache_hit_rate"])
	}
}

func TestRunExportCSV(t *testing.T) {
	r := Run{Label: "x", Phases: []Phase{
		{Name: "a", Cycles: 10, Ops: Counters{Loads: 5}},
		{Name: "b", Cycles: 20, Ops: Counters{Stores: 7}},
	}}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	rd := csv.NewReader(strings.NewReader(b.String()))
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("rows = %d", len(recs))
	}
	if recs[0][0] != "phase" || recs[1][0] != "a" || recs[2][6] != "0" {
		t.Errorf("unexpected CSV content: %v", recs)
	}
}

func TestMergedUtilIsCycleWeighted(t *testing.T) {
	r := Run{Phases: []Phase{
		{Name: "a", Cycles: 10, Util: Util{FPU: 0.9, DRAM: 0.1}},
		{Name: "b", Cycles: 30, Util: Util{FPU: 0.1, DRAM: 0.9}},
	}}
	all := r.Overall()
	// (0.9*10 + 0.1*30)/40 = 0.3 and symmetrically 0.7 for DRAM.
	if math.Abs(all.Util.FPU-0.3) > 1e-12 || math.Abs(all.Util.DRAM-0.7) > 1e-12 {
		t.Fatalf("merged util = %+v", all.Util)
	}
	empty := Run{}.Overall()
	if empty.Util != (Util{}) {
		t.Fatalf("empty merge util = %+v", empty.Util)
	}
}

func TestExportIncludesMemoryAndUtilColumns(t *testing.T) {
	r := Run{Label: "x", Phases: []Phase{{
		Name: "p", Cycles: 100,
		Ops:  Counters{Prefetches: 4, RowHits: 9, RowMisses: 3},
		Util: Util{FPU: 0.5, LSU: 0.25, DRAM: 0.75},
	}}}

	var jb strings.Builder
	if err := r.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(jb.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	p0 := decoded["phases"].([]any)[0].(map[string]any)
	for key, want := range map[string]float64{
		"prefetches": 4, "row_hits": 9, "row_misses": 3,
		"fpu_util": 0.5, "lsu_util": 0.25, "dram_util": 0.75,
	} {
		if got := p0[key].(float64); got != want {
			t.Errorf("JSON %s = %v, want %v", key, got, want)
		}
	}

	var cb strings.Builder
	if err := r.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(cb.String())).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	header, row := recs[0], recs[1]
	want := map[string]string{
		"prefetches": "4", "row_hits": "9", "row_misses": "3",
		"fpu_util": "0.5000", "lsu_util": "0.2500", "dram_util": "0.7500",
	}
	found := 0
	for i, col := range header {
		if w, ok := want[col]; ok {
			found++
			if row[i] != w {
				t.Errorf("CSV %s = %q, want %q", col, row[i], w)
			}
		}
	}
	if found != len(want) {
		t.Errorf("CSV header %v missing expected columns", header)
	}
}
