package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/harness"
	"xmtfft/internal/serve"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

// TestMain lets the test binary stand in for the program when a traced
// run starts its untraced half as a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-workload" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(append([]float64(nil), samples...), c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 4 samples = %v, want the lower middle 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true},   // rank 90, 10 beyond
		{99, 0.9, false},   // rank 90, 9 beyond
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{20, 0.5, true},    // rank 10, 10 beyond
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestRelErr(t *testing.T) {
	ref := []complex128{1, 2i, -3, 4 - 4i}
	got := make([]complex64, len(ref))
	for i, r := range ref {
		got[i] = complex64(r)
	}
	if e := relErr(got, ref); e != 0 {
		t.Errorf("rel_err of an exact copy = %v", e)
	}
	for i, r := range ref {
		got[i] = complex64(r * 1.001)
	}
	if e := relErr(got, ref); math.Abs(e-1e-3) > 1e-7 {
		t.Errorf("rel_err of a 0.1%% scaling = %v, want 1e-3", e)
	}
	var acc errAcc
	acc.add(got[:2], ref[:2])
	acc.add(got[2:], ref[2:])
	if e := relErr(got, ref); acc.value() != e {
		t.Errorf("accumulated rel_err %v differs from one-shot %v", acc.value(), e)
	}
}

// host_gflops is 5·N·log2 N per second of operation time; a failed
// operation counts as infinitely slow in the percentiles and is not a
// completed operation in rps.
func TestGFLOPSConventionAndOpTimes(t *testing.T) {
	if got := stats.StandardFFTFlops(1024); got != 5*1024*10 {
		t.Errorf("flops of a 1024-point FFT = %v, want 5·N·log2 N = 51200", got)
	}
	if got := gflops(51200, 10*time.Microsecond); math.Abs(got-5.12) > 1e-12 {
		t.Errorf("gflops(51200 flops, 10µs) = %v, want 5.12", got)
	}
	o := newOutcome()
	o.setOpTimes([]float64{300, 100, math.Inf(1), 200}, 51200)
	want := map[string]float64{"rps": 5, "host_gflops": 5 * 51200 / 1e9, "p50_ms": 200}
	for k, w := range want {
		if got := o.e2e[k]; math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got, w)
		}
	}
	o.setOpTimes([]float64{100, math.Inf(1), math.Inf(1)}, 51200)
	if got := o.e2e["p50_ms"]; !math.IsInf(got, 1) {
		t.Errorf("p50 with most operations failed = %v, want +Inf", got)
	}
	// Simulated GFLOPS: 5·N·log2 N over cycles at the 3.3 GHz clock.
	simWant := 5 * 262144 * 18 / 1173418.0 * 3.3
	if got := stats.StandardGFLOPS(262144, 1173418, config.ClockGHz); math.Abs(got-simWant) > 1e-9 {
		t.Errorf("sim GFLOPS = %v, want %v", got, simWant)
	}
}

// The sim_mops numerator must be the simulator benchmark's
// useful_events for the same workload.
func TestUsefulEventsMatchSimBench(t *testing.T) {
	const tcus, n = 64, 8
	rec, err := harness.RunSimBench(tcus, n, []int{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.FourK().Scaled(tcus)
	if err != nil {
		t.Fatal(err)
	}
	m, err := xmt.NewParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.New3D(m, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	run, err := tr.Run(fft.Forward)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rec.Results {
		if r.Engine == "sharded" {
			if got := usefulEvents(run.TotalOps()); got != r.UsefulEvents {
				t.Errorf("useful events %d, BENCH_sim useful_events %d", got, r.UsefulEvents)
			}
			return
		}
	}
	t.Fatal("sim bench recorded no sharded run")
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every name is valid and used once, and BENCHMARK.json lists exactly
// the workloads and metrics this program reports.
func TestNamesValidAndMatchBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("invalid name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: invalid unit %q", d.name, d.unit)
		}
	}

	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, program %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %s/%s, program %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Layer: "bench", Start: 0, End: 10 * ms, ID: 1},
		{Layer: "fft", Start: 2 * ms, End: 4 * ms, ID: 2, Parent: 1},
		{Layer: "fft", Start: 3 * ms, End: 6 * ms, ID: 3, Parent: 1},
		{Layer: "serve", Start: 8 * ms, End: 12 * ms, ID: 4, Parent: 1},
		{Layer: "serve", Start: 8 * ms, End: 9 * ms, ID: 5, Parent: 4},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"bench": 10*ms - 4*ms - 2*ms, "fft": 5 * ms, "serve": 3*ms + 1*ms}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

// smoke runs one workload for a moment and checks the record.
func smoke(t *testing.T, name string, trace int) *result {
	t.Helper()
	res, err := run(name, 7, 0.01, trace, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v", name, d.name, m)
		}
		if trace == 0 && !(m.Value > 0) {
			t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, m.Value)
		}
	}
	return res
}

func TestSmokeEachWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) { smoke(t, w.name, 0) })
	}
}

func TestSmokeTraced(t *testing.T) {
	sim := smoke(t, "sim-64k-dram", 1)
	for _, name := range []string{"sim_gflops", "core.rotate_cycles", "model.ratio", "noc.blocked_per_packet"} {
		if !(sim.Metrics[name].Value > 0) {
			t.Errorf("sim traced run: %s = %v", name, sim.Metrics[name].Value)
		}
	}
	srv := smoke(t, "serve-1d-c2", 1)
	if srv.Metrics["core.fft_cycles"].Value != 0 {
		t.Error("serve traced run reports simulator cycles")
	}
}

func TestSeededInputs(t *testing.T) {
	a, b, c := seededComplex(1, 64), seededComplex(1, 64), seededComplex(2, 64)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different inputs")
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds gave the same inputs")
	}
	o := seededOrder(3, servePool)
	hit := make([]bool, servePool)
	for _, i := range o {
		hit[i] = true
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("seeded order misses payload %d", i)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, c := range []struct {
		name    string
		seconds float64
		trace   int
	}{{"nope", 1, 0}, {"sim-64k-dram", 0, 0}, {"sim-64k-dram", 1, 2}} {
		if _, err := run(c.name, 1, c.seconds, c.trace, t.TempDir()); err == nil {
			t.Errorf("run(%q, seconds=%v, trace=%d) succeeded", c.name, c.seconds, c.trace)
		}
	}
}

func TestPerSecondMedian(t *testing.T) {
	// 10, 10, 2 and 10 completions in the four whole seconds; the 0.5 s
	// tail is dropped.
	var done []float64
	for sec, n := range []int{10, 10, 2, 10, 7} {
		for i := 0; i < n; i++ {
			done = append(done, float64(sec)+float64(i)/float64(n+1))
		}
	}
	if got := perSecondMedian(done, 4.5); got != 10 {
		t.Errorf("perSecondMedian = %v, want 10", got)
	}
	if got := perSecondMedian([]float64{0.1, 0.2}, 0.5); got != 4 {
		t.Errorf("perSecondMedian of a half-second loop = %v, want 4", got)
	}
}

func TestCheckResponseBitExact(t *testing.T) {
	want := []complex64{1.5, complex(-2, 0.25)}
	body := func(data []float64, batched int) []byte {
		b, err := json.Marshal(serve.Response{Dims: []int{2}, Dtype: "complex64", Dir: "forward", Batched: batched, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := []float64{1.5, 0, -2, 0.25}
	if b, err := checkResponse(body(good, 2), want); err != nil || b != 2 {
		t.Fatalf("exact response: batched %d, err %v", b, err)
	}
	off := append([]float64(nil), good...)
	off[3] = math.Nextafter(0.25, 1) // not a float32, one float64 ulp away
	for _, data := range [][]float64{off, {1.5, 0, -2, float64(math.Nextafter32(0.25, 1))}, good[:2]} {
		if _, err := checkResponse(body(data, 1), want); err == nil {
			t.Errorf("response %v accepted", data)
		}
	}
	if _, err := checkResponse([]byte("{"), want); err == nil {
		t.Error("truncated response accepted")
	}
}
