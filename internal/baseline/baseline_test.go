package baseline

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"xmtfft/internal/fft"
)

func TestPublishedFFTWBaselinesConsistent(t *testing.T) {
	// The back-derived FFTW baselines must reproduce the paper's
	// published speedup pairs (Table IV / Table V) within rounding.
	tableIV := map[string]float64{"4k": 239, "8k": 500, "64k": 3667, "128k x2": 12570, "128k x4": 18972}
	tableVSerial := map[string]float64{"4k": 31, "8k": 66, "64k": 482, "128k x2": 1652, "128k x4": 2494}
	tableVPar := map[string]float64{"4k": 2.8, "8k": 5.8, "64k": 43, "128k x2": 147, "128k x4": 222}
	for name, gflops := range tableIV {
		s := gflops / FFTWSerialGFLOPS
		if math.Abs(s-tableVSerial[name])/tableVSerial[name] > 0.035 {
			t.Errorf("%s: serial speedup from baseline = %.1f, paper %.0f", name, s, tableVSerial[name])
		}
		p := gflops / FFTWParallelGFLOPS
		if math.Abs(p-tableVPar[name])/tableVPar[name] > 0.035 {
			t.Errorf("%s: parallel speedup from baseline = %.1f, paper %.1f", name, p, tableVPar[name])
		}
	}
}

func TestXeonAreaScaling(t *testing.T) {
	// §VI-A: 416 mm² at 32 nm scales to ~197 mm² at 22 nm.
	got := XeonAreaAt22nm()
	if math.Abs(got-196.6) > 1 {
		t.Errorf("Xeon at 22 nm = %.1f mm², want ~196.6", got)
	}
}

func TestEdisonData(t *testing.T) {
	e := EdisonData()
	if e.Cores != 124608 || e.Nodes != 5192 || e.CPUChips != 10384 || e.RouterChips != 1298 {
		t.Fatalf("edison = %+v", e)
	}
	if math.Abs(e.PercentOfPeak()-0.569) > 0.01 {
		t.Errorf("%% of peak = %.3f", e.PercentOfPeak())
	}
	// The normalized area must exceed the raw 22 nm CPU silicon (routers
	// at 40 nm normalize down).
	if e.NormalizedCM2 <= e.SiliconCM2at22nm {
		t.Error("normalized area should exceed CPU-only 22 nm area")
	}
}

func TestPriorWorkAndTableI(t *testing.T) {
	pw := PriorWork()
	if len(pw) < 5 {
		t.Fatalf("prior work has %d rows", len(pw))
	}
	var sawMPI, sawGPU bool
	for _, r := range pw {
		if r.GFLOPS <= 0 || r.System == "" {
			t.Errorf("bad row %+v", r)
		}
		if r.Kind == "MPI" {
			sawMPI = true
		}
		if r.Kind == "GPU" {
			sawGPU = true
		}
	}
	if !sawMPI || !sawGPU {
		t.Error("survey missing MPI or GPU entries")
	}
	if len(TableI()) != 5 {
		t.Errorf("Table I has %d rows, want 5", len(TableI()))
	}
}

func TestIntelAreaFactorReproducesPaperNormalization(t *testing.T) {
	// 35.4 cm² at 14 nm / 0.54 ≈ 66 cm² (Table VI).
	if got := 35.4 / Intel14to22AreaFactor; math.Abs(got-65.6) > 0.2 {
		t.Errorf("normalized = %.1f cm², want ~65.6", got)
	}
}

func TestRunHostBenchRecord(t *testing.T) {
	rec, err := RunHostBench([]int{8}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.GOMAXPROCS <= 0 || rec.GOARCH == "" || rec.GoVersion == "" {
		t.Fatalf("record missing machine context: %+v", rec)
	}
	// Codelet-on/off pairs: 1D at every standard size, 3D at each n³.
	for _, n := range HostBench1DSizes {
		if sp := rec.CodeletSpeedup1D(n); sp <= 0 {
			t.Errorf("record lacks a 1D codelet pair at n=%d", n)
		}
	}
	if sp := rec.CodeletSpeedup3D(8, 1); sp <= 0 {
		t.Error("record lacks a serial 3D codelet pair at n=8")
	}
	if rec.CodeletSpeedup1D(99) != 0 || rec.CodeletSpeedup3D(99, 1) != 0 {
		t.Error("codelet speedup reported for an unmeasured size")
	}
	for _, r := range rec.Results {
		if r.Dim != 1 && r.Dim != 3 {
			t.Errorf("missing dimensionality in %+v", r)
		}
		if r.Elapsed <= 0 || r.GFLOPS <= 0 {
			t.Errorf("unmeasured result %+v", r)
		}
	}
	// JSON round trip.
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(rec.Results) || back.Name != rec.Name {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestMeasureHost3D(t *testing.T) {
	r, err := MeasureHost3D(16, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.GFLOPS <= 0 || r.Elapsed <= 0 || r.N != 16 || r.Workers != 1 || !r.Codelets {
		t.Fatalf("result = %+v", r)
	}
	// Options reach the plan: codelets off is measured and recorded.
	off, err := MeasureHost3D(16, 2, 1, fft.WithCodelets(false))
	if err != nil {
		t.Fatal(err)
	}
	if off.Codelets || off.Workers != 2 || !strings.HasSuffix(off.Label, "codelets=off") {
		t.Fatalf("codelets-off result = %+v", off)
	}
	// reps<1 clamps.
	if _, err := MeasureHost3D(16, 2, 0); err != nil {
		t.Fatal(err)
	}
	// invalid size errors.
	if _, err := MeasureHost3D(17, 1, 1); err == nil {
		t.Error("non-power-of-two accepted")
	}
}
