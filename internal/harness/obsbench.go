package harness

// Observability-overhead benchmark: the same FFT workload simulated with
// observability off, with engine telemetry only, and with the full live
// surface (telemetry + machine metrics bridge), written as BENCH_obs.json.
// It is the machine-readable form of the two contracts the code makes:
// the off state costs only nil-guarded branches (overhead_pct ~ noise),
// and the on-state hot path (counter add, gauge set, histogram observe)
// allocates nothing. Simulated cycles are asserted identical across
// modes — observability never perturbs results.
//
// One untimed FFT warms the process up first, and every rep runs the
// modes in a rotated order, so neither warm-up nor position in the
// sequence lands on one mode. Overhead compares medians, and a mode
// whose median lies inside the off mode's interquartile range is
// reported as unresolved.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/metrics"
	"xmtfft/internal/sim"
	"xmtfft/internal/xmt"
)

// ObsBenchResult is one observability mode's measurement: the best of
// reps, with the spread of all reps (nearest-rank quartiles) beside it.
type ObsBenchResult struct {
	Mode             string  `json:"mode"` // "off", "telemetry", "live"
	ElapsedSec       float64 `json:"elapsed_sec"`
	ElapsedMinSec    float64 `json:"elapsed_min_sec"`
	ElapsedQ1Sec     float64 `json:"elapsed_q1_sec"`
	ElapsedMedianSec float64 `json:"elapsed_median_sec"`
	ElapsedQ3Sec     float64 `json:"elapsed_q3_sec"`
	ElapsedMaxSec    float64 `json:"elapsed_max_sec"`
	Cycles           uint64  `json:"cycles"`
	Events           uint64  `json:"events"`
	EventsPerSec     float64 `json:"events_per_sec"` // at the best rep
	OverheadPct      float64 `json:"overhead_pct"`   // median vs the "off" mode's median
}

// setSpread fills the elapsed-time statistics from the reps' times.
func (r *ObsBenchResult) setSpread(times []float64) {
	sort.Float64s(times)
	rank := func(q float64) float64 { // nearest rank
		return times[max(0, int(math.Ceil(q*float64(len(times))))-1)]
	}
	r.ElapsedSec, r.ElapsedMinSec, r.ElapsedMaxSec = times[0], times[0], times[len(times)-1]
	r.ElapsedQ1Sec, r.ElapsedMedianSec, r.ElapsedQ3Sec = rank(0.25), rank(0.5), rank(0.75)
	if r.ElapsedSec > 0 {
		r.EventsPerSec = float64(r.Events) / r.ElapsedSec
	}
}

// resolvedAgainst reports whether r's median lies outside off's
// interquartile range, so that its overhead stands out of the off
// mode's own spread.
func (r *ObsBenchResult) resolvedAgainst(off *ObsBenchResult) bool {
	return r.ElapsedMedianSec < off.ElapsedQ1Sec || r.ElapsedMedianSec > off.ElapsedQ3Sec
}

// ObsHotPath holds microbenchmarks of the scrape-side primitives the
// simulation hot path touches.
type ObsHotPath struct {
	CounterAddNs       float64 `json:"counter_add_ns"`
	GaugeSetNs         float64 `json:"gauge_set_ns"`
	HistogramObserveNs float64 `json:"histogram_observe_ns"`
	CounterAddAllocs   float64 `json:"counter_add_allocs"`
	GaugeSetAllocs     float64 `json:"gauge_set_allocs"`
	HistObserveAllocs  float64 `json:"histogram_observe_allocs"`
	EncodeNs           float64 `json:"encode_ns"` // one full exposition of the bridged registry
}

// ObsBenchRecord is the full BENCH_obs.json payload.
type ObsBenchRecord struct {
	Kind       string           `json:"kind"` // "xmt-obs-bench"
	Config     string           `json:"config"`
	TCUs       int              `json:"tcus"`
	N          int              `json:"n"`
	Reps       int              `json:"reps"`
	GoMaxProcs int              `json:"go_max_procs"`
	NumCPU     int              `json:"num_cpu"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	Results    []ObsBenchResult `json:"results"`
	HotPath    ObsHotPath       `json:"hot_path"`
	Note       string           `json:"note,omitempty"`
}

// Write emits the record as indented JSON.
func (r *ObsBenchRecord) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// obsBenchOnce runs one n^3 FFT on a fresh machine in the given
// observability mode.
func obsBenchOnce(cfg config.Config, n int, mode string) (ObsBenchResult, error) {
	m, err := xmt.New(cfg)
	if err != nil {
		return ObsBenchResult{}, err
	}
	switch mode {
	case "off":
	case "telemetry":
		m.SetTelemetry(&sim.Telemetry{})
	case "live":
		reg := metrics.NewRegistry()
		m.AttachLiveMetrics(metrics.NewMachineSet(reg), 0)
		m.SetTelemetry(&sim.Telemetry{})
	default:
		return ObsBenchResult{}, fmt.Errorf("harness: unknown obs-bench mode %q", mode)
	}
	tr, err := core.New3D(m, n, n, n)
	if err != nil {
		return ObsBenchResult{}, err
	}
	for i := range tr.Data {
		tr.Data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
	begin := time.Now()
	run, err := tr.Run(fft.Forward)
	if err != nil {
		return ObsBenchResult{}, err
	}
	return ObsBenchResult{
		Mode: mode, ElapsedSec: time.Since(begin).Seconds(),
		Cycles: run.TotalCycles(), Events: m.SimStats().Events,
	}, nil
}

// allocsPerRun reports average heap allocations per call of f, after a
// warm-up call (the moral equivalent of testing.AllocsPerRun, kept out
// of the testing package so release binaries can run it).
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// nsPerOp times f over runs iterations.
func nsPerOp(runs int, f func()) float64 {
	begin := time.Now()
	for i := 0; i < runs; i++ {
		f()
	}
	return float64(time.Since(begin).Nanoseconds()) / float64(runs)
}

// hotPathBench measures the metric primitives on a bridged registry.
func hotPathBench() ObsHotPath {
	reg := metrics.NewRegistry()
	metrics.NewMachineSet(reg)
	c := reg.Counter("bench_counter", "bench")
	g := reg.Gauge("bench_gauge", "bench")
	h := reg.Histogram("bench_histogram", "bench", 1, 10, 100, 1000)
	const runs = 1 << 20
	hp := ObsHotPath{
		CounterAddNs:       nsPerOp(runs, func() { c.Add(3) }),
		GaugeSetNs:         nsPerOp(runs, func() { g.Set(42.5) }),
		HistogramObserveNs: nsPerOp(runs, func() { h.Observe(17) }),
		CounterAddAllocs:   allocsPerRun(4096, func() { c.Add(3) }),
		GaugeSetAllocs:     allocsPerRun(4096, func() { g.Set(42.5) }),
		HistObserveAllocs:  allocsPerRun(4096, func() { h.Observe(17) }),
	}
	hp.EncodeNs = nsPerOp(256, func() { reg.WriteOpenMetrics(io.Discard) })
	return hp
}

// RunObsBench measures observability overhead on an n^3 FFT at the
// scaled 4k machine size, each mode over reps runs, and asserts the
// cycle counts are identical across modes and reps.
func RunObsBench(tcus, n, reps int) (*ObsBenchRecord, error) {
	cfg, err := config.FourK().Scaled(tcus)
	if err != nil {
		return nil, err
	}
	if reps < 1 {
		reps = 1
	}
	rec := &ObsBenchRecord{
		Kind: "xmt-obs-bench", Config: cfg.Name, TCUs: cfg.TCUs, N: n, Reps: reps,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	modes := []string{"off", "telemetry", "live"}
	warm, err := obsBenchOnce(cfg, n, "off") // warm-up, untimed
	if err != nil {
		return nil, err
	}
	rec.Results = make([]ObsBenchResult, len(modes))
	times := make([][]float64, len(modes))
	for r := 0; r < reps; r++ {
		for k := range modes {
			i := (r + k) % len(modes)
			res, err := obsBenchOnce(cfg, n, modes[i])
			if err != nil {
				return nil, err
			}
			if res.Cycles != warm.Cycles || res.Events != warm.Events {
				return nil, fmt.Errorf("harness: obs mode %q perturbed the simulation (cycles %d vs %d, events %d vs %d)",
					res.Mode, res.Cycles, warm.Cycles, res.Events, warm.Events)
			}
			rec.Results[i] = res
			times[i] = append(times[i], res.ElapsedSec)
		}
	}
	for i := range rec.Results {
		rec.Results[i].setSpread(times[i])
	}
	off := &rec.Results[0]
	var unresolved []string
	for i := range rec.Results {
		r := &rec.Results[i]
		if off.ElapsedMedianSec > 0 {
			r.OverheadPct = (r.ElapsedMedianSec - off.ElapsedMedianSec) / off.ElapsedMedianSec * 100
		}
		if i > 0 && (reps < 2 || !r.resolvedAgainst(off)) {
			unresolved = append(unresolved, fmt.Sprintf("%s %+.1f%%", r.Mode, r.OverheadPct))
		}
	}
	if len(unresolved) > 0 {
		rec.Note = fmt.Sprintf("overhead unresolved, median inside the off mode's interquartile range (%.4f-%.4f s over %d reps): %s",
			off.ElapsedQ1Sec, off.ElapsedQ3Sec, reps, strings.Join(unresolved, ", "))
	}
	rec.HotPath = hotPathBench()
	if rec.HotPath.CounterAddAllocs != 0 || rec.HotPath.GaugeSetAllocs != 0 || rec.HotPath.HistObserveAllocs != 0 {
		rec.Note = strings.TrimPrefix(rec.Note+"; WARNING: metric hot path allocated — zero-alloc contract violated", "; ")
	}
	return rec, nil
}
