package model

import (
	"strings"
	"testing"

	"xmtfft/internal/config"
)

func TestBindingOfPaperConfigs(t *testing.T) {
	// §VI-B: 4k/8k/64k are bandwidth(DRAM)-bound at 512³. 128k x2 sits
	// at the DRAM/NoC crossover — its aggregate DRAM time still edges
	// out the interconnect even though the rotation phase is visibly
	// ICN-limited (observation (b)) — while x4, with 4x the DRAM
	// bandwidth and the same interconnect, is outright NoC-bound
	// (observation (c)).
	want := map[string]Binding{
		config.Name4K:     BindDRAM,
		config.Name8K:     BindDRAM,
		config.Name64K:    BindDRAM,
		config.Name128Kx2: BindDRAM,
		config.Name128Kx4: BindNoC,
	}
	for _, c := range config.Paper() {
		p, err := Project3D(c, PaperN)
		if err != nil {
			t.Fatal(err)
		}
		if p.Binding != want[c.Name] {
			t.Errorf("%s binding = %s, want %s", c.Name, p.Binding, want[c.Name])
		}
	}
}

func TestBindingErrors(t *testing.T) {
	if _, err := Project3D(config.FourK(), 100); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestSizeSweepMonotoneAndLabeled(t *testing.T) {
	pts, err := SizeSweep(config.FourK(), []int{64, 128, 256, 512, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		if p.GFLOPS <= 0 {
			t.Errorf("point %d: nonpositive GFLOPS", i)
		}
		if !strings.Contains(p.String(), "bound") {
			t.Errorf("point %d: bad string %q", i, p.String())
		}
	}
	// Efficiency depends on the radix decomposition: sizes that are pure
	// powers of 8 (64, 512) avoid a low-FLOP radix-2/4 tail pass that
	// still pays full rotation traffic, so 512 = 8³ — the paper's chosen
	// size — is the best point of the sweep, and pure-8 sizes beat their
	// mixed-radix neighbors.
	byN := map[int]float64{}
	for _, p := range pts {
		byN[p.N] = p.GFLOPS
	}
	for _, p := range pts {
		if p.GFLOPS > byN[512] {
			t.Errorf("n=%d (%.0f GFLOPS) beats the paper's 512 (%.0f)", p.N, p.GFLOPS, byN[512])
		}
	}
	if byN[64] <= byN[128] {
		t.Errorf("pure radix-8 n=64 (%.0f) should beat mixed n=128 (%.0f)", byN[64], byN[128])
	}
	if byN[512] <= byN[1024] {
		t.Errorf("pure radix-8 n=512 (%.0f) should beat mixed n=1024 (%.0f)", byN[512], byN[1024])
	}
}

func TestSizeSweepRejectsBadSize(t *testing.T) {
	if _, err := SizeSweep(config.FourK(), []int{60}); err == nil {
		t.Error("bad size accepted")
	}
}

func TestStrongScaling(t *testing.T) {
	pts, err := StrongScaling(PaperN)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Speedup != 1 {
		t.Fatalf("base speedup = %g", pts[0].Speedup)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup <= pts[i-1].Speedup {
			t.Errorf("speedup not increasing at %s", pts[i].Cfg.Name)
		}
	}
	// 128k x4 is ~78x the 4k machine (18384/235).
	last := pts[len(pts)-1].Speedup
	if last < 60 || last > 100 {
		t.Errorf("x4 speedup over 4k = %.0f, want ~78", last)
	}
	// Sub-linear overall: 32x the TCUs at the same clock gain less than
	// the 128x raw FPU ratio (2 FPUs... x4 has 16384 FPUs vs 128).
	if last >= 128 {
		t.Errorf("scaling superlinear: %.0f", last)
	}
}

func TestWhereNoCBindingBegins(t *testing.T) {
	// As input grows, bindings stay stable for a given config (the model
	// is size-independent per byte); verify the x4 config is NoC-bound
	// across the sweep while 8k never is.
	for _, n := range []int{64, 256, 1024} {
		x4, err := Project3D(config.OneTwentyEightKx4(), n)
		if err != nil {
			t.Fatal(err)
		}
		if x4.Binding != BindNoC {
			t.Errorf("x4 at n=%d: %s", n, x4.Binding)
		}
		k8, err := Project3D(config.EightK(), n)
		if err != nil {
			t.Fatal(err)
		}
		if k8.Binding == BindNoC {
			t.Errorf("8k at n=%d unexpectedly NoC-bound", n)
		}
	}
}

func TestProjectDimsMatchesCube(t *testing.T) {
	a, err := Project3D(config.FourK(), 128)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Project(config.FourK(), [3]int{128, 128, 128}, Calibrated())
	if err != nil {
		t.Fatal(err)
	}
	if a.GFLOPS != b.GFLOPS || a.Overall.TimeSec != b.Overall.TimeSec {
		t.Fatalf("cube projections differ: %+v vs %+v", a.Overall, b.Overall)
	}
	if a.TotalPoints() != 128*128*128 {
		t.Fatalf("total points = %d", a.TotalPoints())
	}
}

func TestProjectDimsNonCube(t *testing.T) {
	p, err := Project(config.FourK(), [3]int{512, 256, 128}, Calibrated())
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalPoints() != 512*256*128 {
		t.Fatalf("points = %d", p.TotalPoints())
	}
	if p.GFLOPS <= 0 {
		t.Fatal("no throughput")
	}
	if _, err := Project(config.FourK(), [3]int{100, 128, 128}, Calibrated()); err == nil {
		t.Error("bad dim accepted")
	}
}

func TestWeakScaling(t *testing.T) {
	pts, err := WeakScaling(256)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	// Work grows with TCUs: 4k:256^3, 8k: 512x256^2, 64k: 2^28, 128k: 2^29.
	if pts[0].Dims != [3]int{256, 256, 256} {
		t.Errorf("base dims %v", pts[0].Dims)
	}
	if pts[1].Dims != [3]int{512, 256, 256} {
		t.Errorf("8k dims %v", pts[1].Dims)
	}
	if got := pts[2].Dims[0] * pts[2].Dims[1] * pts[2].Dims[2]; got != 16*256*256*256 {
		t.Errorf("64k points %d", got)
	}
	if pts[0].Efficiency != 1 {
		t.Errorf("base efficiency %g", pts[0].Efficiency)
	}
	// Efficiency stays positive and bounded. Values above 1 are real:
	// scaling is per-TCU, and the larger configurations carry more DRAM
	// bandwidth and FPUs per TCU than the 4k baseline (x4 has 16x the
	// channels per memory module), so they beat proportional scaling
	// until the NoC claws it back.
	for _, p := range pts {
		if p.Efficiency < 0.3 || p.Efficiency > 2.5 {
			t.Errorf("%s: weak-scaling efficiency %.2f out of range", p.Cfg.Name, p.Efficiency)
		}
	}
	// The NoC-bound x4 must show lower efficiency than its raw resource
	// advantage would suggest: bounded by the x2 point's shape is enough
	// of a check that blocking is charged.
	if pts[4].Efficiency > pts[3].Efficiency*1.8 {
		t.Errorf("x4 efficiency %.2f implausibly above x2 %.2f", pts[4].Efficiency, pts[3].Efficiency)
	}
}

// §V-E: "we also increase the number of FPUs to four per cluster;
// beyond this number, we observe diminishing returns."
func TestFPUDiminishingReturns(t *testing.T) {
	pts, err := FPUSweep(config.OneTwentyEightKx4(), []int{1, 2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		t.Logf("FPUs=%2d: %6.0f GFLOPS (gain %.2fx)", p.Cfg.FPUsPerCluster, p.GFLOPS, p.Gain)
	}
	// 1 -> 2 FPUs helps substantially; 4 -> 8 gives almost nothing.
	if pts[1].Gain < 1.15 {
		t.Errorf("1->2 FPUs gain %.2f, want substantial", pts[1].Gain)
	}
	if pts[3].Gain > 1.10 {
		t.Errorf("4->8 FPUs gain %.2f, want diminishing (<1.10)", pts[3].Gain)
	}
	if pts[4].Gain > 1.05 {
		t.Errorf("8->16 FPUs gain %.2f, want negligible", pts[4].Gain)
	}
	// GFLOPS never decrease with more FPUs.
	for i := 1; i < len(pts); i++ {
		if pts[i].GFLOPS < pts[i-1].GFLOPS {
			t.Errorf("GFLOPS fell adding FPUs at %d", pts[i].Cfg.FPUsPerCluster)
		}
	}
}
