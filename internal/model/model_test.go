package model

import (
	"math"
	"math/rand"
	"testing"

	"xmtfft/internal/baseline"
	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/xmt"
)

// Tolerance for matching the paper's published table values. The paper
// itself reports up to 33% simulator-vs-FPGA discrepancy (5% for FFT);
// we require the model to land within 8% of every Table IV entry.
const paperTol = 0.08

func TestTableIVMatchesPaper(t *testing.T) {
	projs, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if len(projs) != 5 {
		t.Fatalf("got %d projections", len(projs))
	}
	for _, p := range projs {
		want := PaperTableIV[p.Cfg.Name]
		dev := (p.GFLOPS - want) / want
		t.Logf("%-8s model %7.0f GFLOPS, paper %7.0f (%+.1f%%)", p.Cfg.Name, p.GFLOPS, want, dev*100)
		if math.Abs(dev) > paperTol {
			t.Errorf("%s: model %.0f GFLOPS vs paper %.0f (%.1f%% off)", p.Cfg.Name, p.GFLOPS, want, dev*100)
		}
	}
	// Monotone increasing across configurations.
	for i := 1; i < len(projs); i++ {
		if projs[i].GFLOPS <= projs[i-1].GFLOPS {
			t.Errorf("GFLOPS not increasing: %s %.0f <= %s %.0f",
				projs[i].Cfg.Name, projs[i].GFLOPS, projs[i-1].Cfg.Name, projs[i-1].GFLOPS)
		}
	}
	// §VI-B observation (c): x4 is a ~51% improvement over x2, far from
	// the 2-4x its raw resources would suggest, because the ICN binds.
	ratio := projs[4].GFLOPS / projs[3].GFLOPS
	if ratio < 1.3 || ratio > 1.8 {
		t.Errorf("x4/x2 ratio = %.2f, want ~1.5", ratio)
	}
}

func TestTableVMatchesPaper(t *testing.T) {
	rows, err := TableV()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		devS := (r.VsSerialFFTW - r.PaperVsSerial) / r.PaperVsSerial
		devP := (r.VsParallelFFTW - r.PaperVsParallel) / r.PaperVsParallel
		t.Logf("%-8s vs-serial %6.0fX (paper %5.0fX), vs-32t %5.1fX (paper %5.1fX)",
			r.Cfg.Name, r.VsSerialFFTW, r.PaperVsSerial, r.VsParallelFFTW, r.PaperVsParallel)
		if math.Abs(devS) > paperTol+0.02 || math.Abs(devP) > paperTol+0.02 {
			t.Errorf("%s: speedups off by %.1f%% / %.1f%%", r.Cfg.Name, devS*100, devP*100)
		}
	}
}

func TestTableVIMatchesPaper(t *testing.T) {
	c, err := TableVI()
	if err != nil {
		t.Fatal(err)
	}
	// Published Edison column.
	if c.Edison.Cores != 124608 || c.Edison.PeakTFLOPS != 2390 {
		t.Fatalf("Edison data wrong: %+v", c.Edison)
	}
	if math.Abs(c.Edison.PercentOfPeak()-0.57) > 0.01 {
		t.Errorf("Edison %% of peak = %.2f, want 0.57", c.Edison.PercentOfPeak())
	}
	// XMT column.
	if c.XMTPeakTFLOPS < 53.9 || c.XMTPeakTFLOPS > 54.2 {
		t.Errorf("XMT peak = %.1f TFLOPS, want 54", c.XMTPeakTFLOPS)
	}
	if math.Abs(c.XMTCacheMB-128) > 0.01 {
		t.Errorf("XMT cache = %.0f MB, want 128", c.XMTCacheMB)
	}
	if math.Abs(c.XMTSiliconCM2-35.4) > 0.1 {
		t.Errorf("XMT silicon = %.1f cm2, want 35.4", c.XMTSiliconCM2)
	}
	if math.Abs(c.XMTNormalizedCM2-66) > 1 {
		t.Errorf("XMT normalized silicon = %.1f cm2, want ~66", c.XMTNormalizedCM2)
	}
	// Paper: 19.0 TFLOPS for FFT, 35% of peak, 1.4X over Edison, 870x
	// silicon, ~357x power.
	if math.Abs(c.XMTFFTTFLOPS-19.0)/19.0 > paperTol {
		t.Errorf("XMT FFT = %.1f TFLOPS, want ~19", c.XMTFFTTFLOPS)
	}
	if c.XMTPercentOfPeak < 30 || c.XMTPercentOfPeak > 40 {
		t.Errorf("XMT %% of peak = %.0f, want ~35", c.XMTPercentOfPeak)
	}
	if c.SpeedupRatio < 1.25 || c.SpeedupRatio > 1.55 {
		t.Errorf("speedup ratio = %.2f, want ~1.4", c.SpeedupRatio)
	}
	if math.Abs(c.SiliconRatio-870)/870 > 0.05 {
		t.Errorf("silicon ratio = %.0f, want ~870", c.SiliconRatio)
	}
	if math.Abs(c.PowerRatio-357)/357 > 0.05 {
		t.Errorf("power ratio = %.0f, want ~357", c.PowerRatio)
	}
}

func TestSiliconVsXeon(t *testing.T) {
	s, err := SiliconVsXeon()
	if err != nil {
		t.Fatal(err)
	}
	// §VI-A: 4k uses ~1.15x one Xeon's silicon and 58% of two, while
	// beating 32-thread FFTW by ~2.8x.
	if math.Abs(s.AreaVsOneSocket-1.15) > 0.03 {
		t.Errorf("area vs one socket = %.2f, want 1.15", s.AreaVsOneSocket)
	}
	if math.Abs(s.AreaVsTwoSockets-0.58) > 0.02 {
		t.Errorf("area vs two sockets = %.2f, want 0.58", s.AreaVsTwoSockets)
	}
	if math.Abs(s.SpeedupVs32Thread-2.8)/2.8 > paperTol+0.02 {
		t.Errorf("speedup vs 32 threads = %.2f, want ~2.8", s.SpeedupVs32Thread)
	}
}

// Fig. 3 shape assertions from §VI-B.
func TestFig3Shape(t *testing.T) {
	projs, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range projs {
		roof := RooflineOf(p.Cfg)
		// All phases must respect the roofline.
		for _, ph := range []PhasePoint{p.Stream, p.Rotation, p.Overall} {
			if ph.ActualGFLOPS > roof.Bound(ph.Intensity)*1.001 {
				t.Errorf("%s %s: %.0f GFLOPS exceeds roof %.0f at intensity %.3f",
					p.Cfg.Name, ph.Name, ph.ActualGFLOPS, roof.Bound(ph.Intensity), ph.Intensity)
			}
		}
		// Rotation sits left of (lower intensity than) non-rotation, and
		// overall lies between them.
		if !(p.Rotation.Intensity < p.Stream.Intensity) {
			t.Errorf("%s: rotation intensity %.3f >= stream %.3f", p.Cfg.Name, p.Rotation.Intensity, p.Stream.Intensity)
		}
		if p.Overall.Intensity <= p.Rotation.Intensity || p.Overall.Intensity >= p.Stream.Intensity {
			t.Errorf("%s: overall intensity %.3f not between phases", p.Cfg.Name, p.Overall.Intensity)
		}
		// Observation (a): on 4k and 8k both phases are essentially on
		// the sloped (bandwidth) line.
		if p.Cfg.ButterflyLevels == 0 {
			for _, ph := range []PhasePoint{p.Stream, p.Rotation} {
				frac := ph.ActualGFLOPS / roof.Bound(ph.Intensity)
				if frac < 0.95 {
					t.Errorf("%s %s: only %.0f%% of bandwidth bound; expected on the slope",
						p.Cfg.Name, ph.Name, frac*100)
				}
			}
		}
	}
	// Observation (b): the rotation step falls below the slope on 64k
	// and further on 128k x2.
	gap := func(p Projection) float64 {
		roof := RooflineOf(p.Cfg)
		return 1 - p.Rotation.ActualGFLOPS/roof.Bound(p.Rotation.Intensity)
	}
	g64, gx2 := gap(projs[2]), gap(projs[3])
	if !(g64 > 0.01) {
		t.Errorf("64k rotation gap = %.3f, want visibly below the slope", g64)
	}
	if !(gx2 > g64) {
		t.Errorf("x2 rotation gap %.3f not more pronounced than 64k %.3f", gx2, g64)
	}
	// Non-rotation time dominates, so overall is closer to it (§VI-B).
	for _, p := range projs {
		if !(p.Stream.TimeSec > p.Rotation.TimeSec) {
			t.Errorf("%s: non-rotation phase (%.3gs) does not dominate rotation (%.3gs)",
				p.Cfg.Name, p.Stream.TimeSec, p.Rotation.TimeSec)
		}
	}
}

func TestRooflineBound(t *testing.T) {
	r := RooflineOf(config.FourK())
	if math.Abs(r.Ridge-1.0) > 0.01 {
		t.Errorf("4k ridge = %.2f", r.Ridge)
	}
	if got := r.Bound(0.5); math.Abs(got-0.5*r.PeakGBs) > 1e-9 {
		t.Errorf("bound below ridge = %g", got)
	}
	if got := r.Bound(100); got != r.PeakGFLOPS {
		t.Errorf("bound above ridge = %g", got)
	}
}

func TestMaxFFTIntensityAboveOperatingPoint(t *testing.T) {
	// The paper's intensity upper bound (0.25·log2 S) lies well above
	// the actual operating intensity — FFT stays bandwidth-bound.
	projs, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range projs {
		if p.Overall.Intensity >= p.Cfg.MaxFFTIntensity() {
			t.Errorf("%s: operating intensity %.2f above theoretical cap %.2f",
				p.Cfg.Name, p.Overall.Intensity, p.Cfg.MaxFFTIntensity())
		}
	}
}

func TestProjectErrors(t *testing.T) {
	bad := config.FourK()
	bad.TCUs = 7
	if _, err := Project3D(bad, 64); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Project3D(config.FourK(), 100); err == nil {
		t.Error("non-power-of-two size accepted")
	}
}

// Cross-validation: the analytic model and the detailed event simulator
// must agree on overlapping (config, size) points to within a factor
// reflecting the model's omissions (latency ramps, partial caching).
func TestModelMatchesDetailedSim(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation")
	}
	cases := []struct {
		tcus int
		n    int
	}{
		{256, 32},
		{512, 32},
	}
	for _, tc := range cases {
		cfg, err := config.FourK().Scaled(tc.tcus)
		if err != nil {
			t.Fatal(err)
		}
		m, err := xmt.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := core.New3D(m, tc.n, tc.n, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for i := range tr.Data {
			tr.Data[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		}
		run, err := tr.Run(fft.Forward)
		if err != nil {
			t.Fatal(err)
		}
		simCycles := run.TotalCycles()
		modelCycles, err := ProjectCycles(cfg, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(simCycles) / float64(modelCycles)
		t.Logf("tcus=%d n=%d: sim %d cycles, model %d cycles (ratio %.2f)",
			tc.tcus, tc.n, simCycles, modelCycles, ratio)
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("tcus=%d n=%d: sim/model ratio %.2f outside [0.4, 2.5]", tc.tcus, tc.n, ratio)
		}
	}
}

func TestHostBaselineMeasurable(t *testing.T) {
	if testing.Short() {
		t.Skip("host measurement")
	}
	r, err := baseline.MeasureHost3D(32, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.GFLOPS <= 0 || r.Elapsed <= 0 {
		t.Fatalf("bad measurement: %+v", r)
	}
	rp, err := baseline.MeasureHost3D(32, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rp.GFLOPS <= 0 {
		t.Fatalf("bad parallel measurement: %+v", rp)
	}
}

func TestEnergyVsEdison(t *testing.T) {
	e, err := EnergyVsEdison()
	if err != nil {
		t.Fatal(err)
	}
	// Paper ratios: 375x power at ~1.4x speedup -> ~500x energy per unit
	// of FFT work (we model 18.4 TF, so ~480x).
	if e.EfficiencyRatio < 400 || e.EfficiencyRatio > 600 {
		t.Errorf("energy efficiency ratio = %.0f, want ~500", e.EfficiencyRatio)
	}
	if e.XMTJoulesPerGFLOP <= 0 || e.EdisonJoulesPerGFLOP <= e.XMTJoulesPerGFLOP {
		t.Errorf("energy figures inconsistent: %+v", e)
	}
}

func TestSensitivity(t *testing.T) {
	// At calibrated values (scale 1.0) the worst deviation matches the
	// Table IV test tolerance.
	res, err := Sensitivity([]float64{1.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		t.Logf("%-18s worst dev at calibrated values: %.1f%%", r.Param, r.WorstDev*100)
		if r.WorstDev > paperTol {
			t.Errorf("%s: calibrated deviation %.3f exceeds tolerance", r.Param, r.WorstDev)
		}
	}
	// Under ±10% perturbation the traffic parameters stay bounded
	// (<25%): the projection is not a knife-edge fit to them. The one
	// genuinely sensitive parameter is NoCLevelFactor, whose effect
	// compounds over up to 9 butterfly levels (±10% per level is a
	// ±60% swing in effective interconnect bandwidth) — the analysis
	// must rank it most sensitive, which is exactly why DESIGN.md
	// brackets it between the analytic recurrence and the buffered
	// ideal rather than treating it as free.
	res, err = Sensitivity([]float64{0.9, 1.1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Param != "NoCLevelFactor" {
		t.Errorf("most sensitive parameter = %s, want NoCLevelFactor", res[0].Param)
	}
	for _, r := range res {
		t.Logf("%-18s worst dev under ±10%%: %.1f%%", r.Param, r.WorstDev*100)
		if r.Param != "NoCLevelFactor" && r.WorstDev > 0.25 {
			t.Errorf("%s: ±10%% perturbation blows up to %.0f%%", r.Param, r.WorstDev*100)
		}
	}
}
