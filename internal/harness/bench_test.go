package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/xmt"
)

// benchSettings is the CI-speed size of the suites' tests: 4k scaled to
// 64 TCUs, 8³ FFTs and host 3D pairs, two repetitions. The serve suite
// has a fixed workload and runs at one repetition.
var benchSettings = BenchSettings{TCUs: 64, N: 8, Reps: 2, FaultSeed: 1}

// suiteCases returns the record's cases of one suite, keyed by name and
// metric.
func suiteCases(rec *BenchRecord, suite string) map[[2]string]BenchCase {
	out := map[[2]string]BenchCase{}
	for _, c := range rec.Cases {
		if c.Suite == suite {
			out[[2]string{c.Name, c.Metric}] = c
		}
	}
	return out
}

// TestRunBench runs each of the five suites and checks its contract,
// every case's spread, and the record's header and JSON round trip.
func TestRunBench(t *testing.T) {
	// Suites run in the order named, into one record.
	rec, err := RunBench([]string{"fault", "sim"}, BenchSettings{TCUs: 64, N: 4, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if first, last := rec.Cases[0].Suite, rec.Cases[len(rec.Cases)-1].Suite; first != "fault" || last != "sim" {
		t.Errorf("cases run from suite %q to %q, want fault to sim", first, last)
	}
	if _, err := RunBench([]string{"sim", "nope"}, benchSettings); err == nil {
		t.Error("unknown suite accepted")
	}

	sim := fmt.Sprintf("4k/%d n=%d", benchSettings.TCUs, benchSettings.N)
	reps := benchSettings.Reps
	for _, tc := range []struct {
		suite string
		check func(t *testing.T, cases map[[2]string]BenchCase)
	}{
		{"host", func(t *testing.T, cases map[[2]string]BenchCase) {
			var names []string
			for _, n := range host1DSizes {
				names = append(names, host1DName(n, true), host1DName(n, false))
			}
			workers := []int{1}
			if w := runtime.GOMAXPROCS(0); w > 1 {
				workers = append(workers, w)
			}
			for _, w := range workers {
				for _, c := range []string{"on", "off"} {
					names = append(names, fmt.Sprintf("3d n=%d workers=%d codelets=%s", benchSettings.N, w, c))
				}
			}
			for _, name := range names {
				for _, metric := range []string{"elapsed", "gflops"} {
					if c, ok := cases[[2]string{name, metric}]; !ok || c.Reps != reps || c.Min <= 0 {
						t.Errorf("%s %s: %+v (present %v), want %d positive reps", name, metric, c, ok, reps)
					}
				}
			}
			if len(cases) != 2*len(names) {
				t.Errorf("%d host cases, want %d", len(cases), 2*len(names))
			}
		}},
		{"sim", func(t *testing.T, cases map[[2]string]BenchCase) {
			for _, metric := range []string{"elapsed", "useful_events_per_sec", "engine_events_per_sec"} {
				if c := cases[[2]string{sim, metric}]; c.Reps != reps || c.Min <= 0 {
					t.Errorf("%s: %+v, want %d positive reps", metric, c, reps)
				}
			}
			for _, metric := range []string{"cycles", "events", "windows", "barriers", "messages"} {
				if c := cases[[2]string{sim, metric}]; c.Reps != 1 || c.Min <= 0 {
					t.Errorf("%s: %+v, want one positive rep", metric, c)
				}
			}
			// Useful events are the model-level op count of the workload.
			cfg, err := config.FourK().Scaled(benchSettings.TCUs)
			if err != nil {
				t.Fatal(err)
			}
			n := benchSettings.N
			m, err := xmt.New(cfg)
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
			if got, want := cases[[2]string{sim, "useful_events"}].Median, float64(usefulEvents(run.TotalOps())); got != want {
				t.Errorf("useful events %g, want the model-level op count %g", got, want)
			}
		}},
		{"obs", func(t *testing.T, cases map[[2]string]BenchCase) {
			for _, metric := range []string{"cycles", "events"} {
				if c := cases[[2]string{sim, metric}]; c.Reps != 1 || c.Min <= 0 {
					t.Errorf("%s: %+v, want one positive rep", metric, c)
				}
			}
			for _, mode := range obsModes {
				name := sim + " mode=" + mode.name
				for _, metric := range []string{"elapsed", "events_per_sec"} {
					if c := cases[[2]string{name, metric}]; c.Reps != reps || c.Min <= 0 {
						t.Errorf("%s %s: %+v, want %d positive reps", name, metric, c, reps)
					}
				}
				if _, ok := cases[[2]string{name, "overhead"}]; !ok {
					t.Errorf("%s: no overhead case", name)
				}
			}
			if off := cases[[2]string{sim + " mode=off", "overhead"}]; off.Median != 0 {
				t.Errorf("off mode overhead %g, want 0", off.Median)
			}
			for _, prim := range []string{"counter_add", "gauge_set", "histogram_observe"} {
				if c := cases[[2]string{prim, "allocs"}]; c.Reps != 1 || c.Max != 0 {
					t.Errorf("%s allocates: %+v", prim, c)
				}
				if c := cases[[2]string{prim, "time"}]; c.Reps != reps || c.Min <= 0 {
					t.Errorf("%s time: %+v", prim, c)
				}
			}
			if c := cases[[2]string{"encode", "time"}]; c.Reps != reps || c.Min <= 0 {
				t.Errorf("encode time: %+v", c)
			}
		}},
		{"fault", func(t *testing.T, cases map[[2]string]BenchCase) {
			for _, rate := range faultRates[1:] {
				name := fmt.Sprintf("%s rate=%g", sim, rate)
				for _, metric := range []string{"cycles_overhead", "noc_retransmits", "ecc_corrected"} {
					if c := cases[[2]string{name, metric}]; c.Reps != 1 || c.Median <= 0 {
						t.Errorf("%s %s = %+v, want one positive rep", name, metric, c)
					}
				}
			}
		}},
		{"serve", func(t *testing.T, cases map[[2]string]BenchCase) {
			for _, level := range serveLevels {
				name := fmt.Sprintf("n=1024 complex64 c=%d", level)
				get := func(metric string) BenchCase {
					c, ok := cases[[2]string{name, metric}]
					if !ok || c.Reps != 1 {
						t.Errorf("%s %s: %+v (present %v), want one rep", name, metric, c, ok)
					}
					return c
				}
				if e := get("errors"); e.Max != 0 {
					t.Errorf("%s: %g errors", name, e.Max)
				}
				if p50, p99 := get("p50"), get("p99"); p50.Min <= 0 || p50.Median > p99.Median {
					t.Errorf("%s: p50 %g, p99 %g", name, p50.Median, p99.Median)
				}
				if tput := get("throughput"); tput.Min <= 0 {
					t.Errorf("%s: throughput %g", name, tput.Min)
				}
			}
		}},
	} {
		t.Run(tc.suite, func(t *testing.T) {
			settings := benchSettings
			if tc.suite == "serve" {
				settings.Reps = 1
			}
			rec, err := RunBench([]string{tc.suite}, settings)
			if err != nil {
				t.Fatal(err)
			}
			if rec.BenchSettings != settings {
				t.Errorf("header %+v does not echo the settings %+v", rec.BenchSettings, settings)
			}
			if h := rec.Host; h.GoVersion == "" || h.GOOS == "" || h.GOARCH == "" || h.GOMAXPROCS < 1 || h.NumCPU < 1 {
				t.Errorf("host block incomplete: %+v", h)
			}
			cases := suiteCases(rec, tc.suite)
			if len(cases) != len(rec.Cases) {
				t.Fatalf("%d of %d cases belong to the suite", len(cases), len(rec.Cases))
			}
			for _, c := range cases {
				if c.Reps < 1 || !(c.Min <= c.Q1 && c.Q1 <= c.Median && c.Median <= c.Q3 && c.Q3 <= c.Max) || c.Unit == "" {
					t.Errorf("bad case %+v", c)
				}
			}
			tc.check(t, cases)

			var buf bytes.Buffer
			if err := rec.Write(&buf); err != nil {
				t.Fatal(err)
			}
			var back BenchRecord
			if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
				t.Fatalf("record does not round-trip as JSON: %v", err)
			}
			if !reflect.DeepEqual(&back, rec) {
				t.Errorf("round trip changed the record:\n%+v\nvs\n%+v", back, *rec)
			}
			for _, key := range []string{`"host"`, `"gomaxprocs"`, `"num_cpu"`, `"go_version"`, `"tcus"`, `"fault_seed"`, `"cases"`, `"q1"`} {
				if !strings.Contains(buf.String(), key) {
					t.Errorf("record JSON lacks %s", key)
				}
			}
		})
	}
}

// TestFaultSuiteBaselineIsRateZero: the fault suite's first run is the
// fault-free one, and it is the baseline of every other rate's
// overhead (and, in the suite, of its bit-identity check).
func TestFaultSuiteBaselineIsRateZero(t *testing.T) {
	if faultRates[0] != 0 {
		t.Fatalf("fault rates %v do not start at 0", faultRates)
	}
	rec, err := RunBench([]string{"fault"}, benchSettings)
	if err != nil {
		t.Fatal(err)
	}
	sim := fmt.Sprintf("4k/%d n=%d", benchSettings.TCUs, benchSettings.N)
	value := func(rate float64, metric string) float64 {
		c := rec.lookup("fault", fmt.Sprintf("%s rate=%g", sim, rate), metric)
		if c == nil {
			t.Fatalf("rate %g: no %s case", rate, metric)
		}
		return c.Median
	}
	base := value(0, "cycles")
	for _, metric := range []string{"cycles_overhead", "noc_drops", "noc_retransmits", "ecc_corrected"} {
		if v := value(0, metric); v != 0 {
			t.Errorf("rate 0 %s = %g, want 0", metric, v)
		}
	}
	for _, rate := range faultRates[1:] {
		if got, want := value(rate, "cycles_overhead"), value(rate, "cycles")/base-1; got != want {
			t.Errorf("rate %g: cycles overhead %g, want %g against the rate-0 run", rate, got, want)
		}
	}
}

// TestObsSuiteRejectsPerturbation: a mode that moves the simulation
// fails the obs suite instead of reporting its time.
func TestObsSuiteRejectsPerturbation(t *testing.T) {
	saved := obsModes[1].setup
	defer func() { obsModes[1].setup = saved }()
	obsModes[1].setup = func(m *xmt.Machine) error {
		m.EnablePrefetch(true)
		return nil
	}
	_, err := RunBench([]string{"obs"}, BenchSettings{TCUs: 64, N: 8, Reps: 1})
	if err == nil || !strings.Contains(err.Error(), "perturbed") {
		t.Fatalf("err = %v, want a perturbation error", err)
	}
}

// TestBenchSpread pins the nearest-rank rule on seven reps: q1, the
// median and q3 are the 2nd, 4th and 6th smallest.
func TestBenchSpread(t *testing.T) {
	samples := []float64{7, 1, 6, 2, 5, 3, 4}
	c := spreadCase("s", "n", "m", "u", samples)
	want := BenchCase{Suite: "s", Name: "n", Metric: "m", Unit: "u", Reps: 7, Min: 1, Q1: 2, Median: 4, Q3: 6, Max: 7}
	if c != want {
		t.Fatalf("spread of 1..7 = %+v, want %+v", c, want)
	}
	if samples[0] != 7 {
		t.Error("spreadCase reordered its input")
	}
	one := spreadCase("s", "n", "m", "u", []float64{3})
	if one.Reps != 1 || one.Min != 3 || one.Q1 != 3 || one.Median != 3 || one.Q3 != 3 || one.Max != 3 {
		t.Errorf("one rep = %+v, want every statistic 3", one)
	}
}

// gateRecord is a synthetic host record with a codelet on/off pair at
// every 1D size; speedups[i] is the off/on ratio at host1DSizes[i].
func gateRecord(speedups ...float64) *BenchRecord {
	rec := &BenchRecord{}
	for i, n := range host1DSizes {
		rec.Cases = append(rec.Cases,
			spreadCase("host", host1DName(n, true), "elapsed", "ns", []float64{100}),
			spreadCase("host", host1DName(n, false), "elapsed", "ns", []float64{100 * speedups[i]}))
	}
	return rec
}

func TestCodeletGate(t *testing.T) {
	rec := gateRecord(2, 1.5, 1.8, 1.6, 1.7)
	worst, n, err := rec.CodeletGate(1.5)
	if err != nil || worst != 1.5 || n != 128 {
		t.Fatalf("gate at the worst speedup: worst %g at n=%d, err %v; want 1.5 at n=128 and a pass", worst, n, err)
	}
	if _, _, err := rec.CodeletGate(1.55); err == nil || !strings.Contains(err.Error(), "n=128") {
		t.Fatalf("gate above the worst speedup: err %v, want a failure naming n=128", err)
	}
	missing := gateRecord(2, 2, 2, 2, 2)
	missing.Cases = slices.DeleteFunc(missing.Cases, func(c BenchCase) bool { return c.Name == host1DName(512, false) })
	if _, _, err := missing.CodeletGate(1); err == nil || !strings.Contains(err.Error(), "n=512") {
		t.Fatalf("missing pair: err %v, want an error naming n=512", err)
	}
}

// TestRunSimBench: the deprecated adapter the repository benchmark's
// tests call returns the sim suite's useful events.
func TestRunSimBench(t *testing.T) {
	rec, err := RunSimBench(64, 4, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunBench([]string{"sim"}, BenchSettings{TCUs: 64, N: 4, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := full.lookup("sim", "4k/64 n=4", "useful_events")
	if len(rec.Results) != 1 || rec.Results[0].Engine != "sharded" || want == nil ||
		float64(rec.Results[0].UsefulEvents) != want.Median || want.Median == 0 {
		t.Fatalf("adapter = %+v, want one sharded result with the suite's useful events %+v", rec, want)
	}
	// The deprecated worker list takes only 1s.
	if one, err := RunSimBench(64, 4, []int{1}, 1); err != nil || len(one.Results) != 1 {
		t.Fatalf("RunSimBench with workers [1]: %v, %+v", err, one)
	}
	if _, err := RunSimBench(64, 4, []int{1, 2}, 1); err == nil {
		t.Fatal("worker count 2 accepted")
	}
}
