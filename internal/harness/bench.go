package harness

// Benchmark records: one record type, one runner and five suites behind
// `xmtbench -bench <suite>[,<suite>...]`. A record carries the host it
// ran on, the settable values of the run and a flat list of cases; a
// case is one measured row with its repetition spread.
//
//   - host: the FFTW-substitute host FFT, serial 1D codelet-on/off
//     pairs over the generated-kernel range and n³ pairs, serial and
//     at GOMAXPROCS workers.
//   - sim: the detailed simulator's wall-clock on one n³ FFT.
//     Throughput is derived from *useful* (model-level) events, a
//     property of the workload, not from raw engine events, which once
//     let a 3× slower design report 3× the throughput by counting its
//     own bookkeeping.
//   - obs: the same FFT with observability off, with engine telemetry
//     and with the full live surface, in a rotated order after one
//     untimed warm-up; the suite errors when a mode moves cycles or
//     events or when a metric primitive allocates.
//   - fault: the FFT at each of faultRates; the suite errors unless
//     every output is bit-identical to the first, fault-free run.
//   - serve: the transform service on a loopback port, driven by the
//     load generator at each of serveLevels; the suite errors on any
//     failed request.
//
// Timed metrics keep every repetition; deterministic quantities
// (cycles, counts, fault tallies) are one repetition.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"time"

	"xmtfft/internal/baseline"
	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fault"
	"xmtfft/internal/fft"
	"xmtfft/internal/metrics"
	"xmtfft/internal/serve"
	"xmtfft/internal/serve/loadgen"
	"xmtfft/internal/sim"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

// BenchHost identifies the machine a record was measured on.
type BenchHost struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// BenchSettings are the settable values of a run. TCUs and N size the
// sim, obs and fault suites (4k scaled to TCUs, an N³ FFT) and N the
// host suite's 3D pairs; Reps repeats every timed measurement; FaultSeed
// seeds the fault suite.
type BenchSettings struct {
	TCUs      int    `json:"tcus"`
	N         int    `json:"n"`
	Reps      int    `json:"reps"`
	FaultSeed uint64 `json:"fault_seed"`
}

// BenchCase is one measured row. Its name carries the case's parameters
// (config, n, workers, codelets, rate, concurrency); the spread is over
// Reps repetitions by nearest rank.
type BenchCase struct {
	Suite  string  `json:"suite"`
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Unit   string  `json:"unit"`
	Reps   int     `json:"reps"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// BenchRecord is the one benchmark record (BENCH_*.json).
type BenchRecord struct {
	Host BenchHost `json:"host"`
	BenchSettings
	Cases []BenchCase `json:"cases"`
}

// Write emits the record as indented JSON.
func (r *BenchRecord) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// lookup returns the case with the given suite, name and metric, or nil.
func (r *BenchRecord) lookup(suite, name, metric string) *BenchCase {
	for i := range r.Cases {
		c := &r.Cases[i]
		if c.Suite == suite && c.Name == name && c.Metric == metric {
			return c
		}
	}
	return nil
}

// spreadCase summarizes samples by nearest rank: q1, the median and q3
// are the ⌈q·len⌉-th smallest sample.
func spreadCase(suite, name, metric, unit string, samples []float64) BenchCase {
	s := slices.Clone(samples)
	sort.Float64s(s)
	rank := func(q float64) float64 {
		return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
	}
	return BenchCase{
		Suite: suite, Name: name, Metric: metric, Unit: unit, Reps: len(s),
		Min: s[0], Q1: rank(0.25), Median: rank(0.5), Q3: rank(0.75), Max: s[len(s)-1],
	}
}

// addFunc appends one case of the running suite to the record and
// returns it.
type addFunc func(name, metric, unit string, samples ...float64) BenchCase

// benchSuites maps each suite name to the function that measures it.
var benchSuites = map[string]func(BenchSettings, addFunc) error{
	"host":  hostSuite,
	"sim":   simSuite,
	"obs":   obsSuite,
	"fault": faultSuite,
	"serve": serveSuite,
}

// BenchSuites lists the suite names RunBench accepts.
var BenchSuites = []string{"host", "sim", "obs", "fault", "serve"}

// RunBench runs the named suites in order and returns their record.
func RunBench(suites []string, s BenchSettings) (*BenchRecord, error) {
	s.Reps = max(s.Reps, 1)
	rec := &BenchRecord{
		Host: BenchHost{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		},
		BenchSettings: s,
	}
	for _, name := range suites {
		run, ok := benchSuites[name]
		if !ok {
			return nil, fmt.Errorf("harness: unknown bench suite %q (want one of %v)", name, BenchSuites)
		}
		add := func(caseName, metric, unit string, samples ...float64) BenchCase {
			c := spreadCase(name, caseName, metric, unit, samples)
			rec.Cases = append(rec.Cases, c)
			return c
		}
		if err := run(s, add); err != nil {
			return nil, fmt.Errorf("harness: %s suite: %w", name, err)
		}
	}
	return rec, nil
}

// fftRun is one forward n³ FFT simulated on the standard input.
type fftRun struct {
	m       *xmt.Machine
	run     stats.Run
	out     []complex64   // the transform's output
	elapsed time.Duration // wall-clock of the simulation alone
}

// simulateFFT builds a machine of cfg, lets setup prepare it (nil for
// none) and simulates one forward n³ FFT on the standard input: the
// workload of the sim, obs and fault suites and of Fig3Detailed.
func simulateFFT(cfg config.Config, n int, setup func(*xmt.Machine) error) (fftRun, error) {
	m, err := xmt.New(cfg)
	if err != nil {
		return fftRun{}, err
	}
	if setup != nil {
		if err := setup(m); err != nil {
			return fftRun{}, err
		}
	}
	tr, err := core.New3D(m, n, n, n)
	if err != nil {
		return fftRun{}, err
	}
	for i := range tr.Data {
		tr.Data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
	begin := time.Now()
	run, err := tr.Run(fft.Forward)
	if err != nil {
		return fftRun{}, err
	}
	return fftRun{m: m, run: run, out: tr.Data, elapsed: time.Since(begin)}, nil
}

// simConfig is the scaled 4k machine and the case name prefix of the
// simulated suites.
func simConfig(s BenchSettings) (config.Config, string, error) {
	cfg, err := config.FourK().Scaled(s.TCUs)
	return cfg, fmt.Sprintf("%s n=%d", cfg.Name, s.N), err
}

// host1DSizes are the host suite's serial 1D sizes, measured as
// codelet-on/off pairs: the generated-kernel coverage range from 64 up
// (the host-1d-sweep sizes).
var host1DSizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func host1DName(n int, codelets bool) string {
	return fmt.Sprintf("1d n=%d codelets=%s", n, onOff(codelets))
}

// hostSuite measures the host FFT: serial 1D codelet-on/off pairs over
// host1DSizes, then N³ pairs serially and, on a multi-core host, at
// GOMAXPROCS workers.
func hostSuite(s BenchSettings, add addFunc) error {
	addResult := func(name string, r baseline.HostResult) {
		points := r.N
		if r.Dim == 3 {
			points = r.N * r.N * r.N
		}
		ns := make([]float64, len(r.Times))
		gflops := make([]float64, len(r.Times))
		for i, d := range r.Times {
			ns[i] = float64(d.Nanoseconds())
			gflops[i] = stats.StandardFFTFlops(points) / d.Seconds() / 1e9
		}
		add(name, "elapsed", "ns", ns...)
		add(name, "gflops", "GFLOPS", gflops...)
	}
	for _, n := range host1DSizes {
		for _, codelets := range []bool{true, false} {
			r, err := baseline.MeasureHost1D(n, s.Reps, codelets)
			if err != nil {
				return fmt.Errorf("1d n=%d codelets=%v: %w", n, codelets, err)
			}
			addResult(host1DName(n, codelets), r)
		}
	}
	workers := []int{1}
	if w := runtime.GOMAXPROCS(0); w > 1 {
		workers = append(workers, w)
	}
	for _, w := range workers {
		for _, codelets := range []bool{true, false} {
			r, err := baseline.MeasureHost3D(s.N, w, s.Reps, fft.WithCodelets(codelets))
			if err != nil {
				return fmt.Errorf("%d^3 x%d codelets=%v: %w", s.N, w, codelets, err)
			}
			addResult(fmt.Sprintf("3d n=%d workers=%d codelets=%s", s.N, w, onOff(codelets)), r)
		}
	}
	return nil
}

// CodeletGate is the codelet ratchet: it returns the worst serial 1D
// codelet speedup (the codelets-off over codelets-on median elapsed
// ratio) of the host suite and its size, and an error when that speedup
// falls below min or a 1D pair is missing from the record.
func (r *BenchRecord) CodeletGate(min float64) (worst float64, worstN int, err error) {
	for _, n := range host1DSizes {
		on := r.lookup("host", host1DName(n, true), "elapsed")
		off := r.lookup("host", host1DName(n, false), "elapsed")
		if on == nil || off == nil || on.Median <= 0 {
			return 0, 0, fmt.Errorf("no codelet-on/off pair for 1d n=%d; the gate cannot be evaluated", n)
		}
		if sp := off.Median / on.Median; worstN == 0 || sp < worst {
			worst, worstN = sp, n
		}
	}
	if worst < min {
		return worst, worstN, fmt.Errorf("codelet gate %.2f not met: 1d n=%d codelet speedup is %.2fx", min, worstN, worst)
	}
	return worst, worstN, nil
}

// usefulEvents reduces a counter set to the model-level operation count:
// the work a run performs regardless of how the engine scheduled it.
func usefulEvents(c stats.Counters) uint64 {
	return c.Loads + c.Stores + c.FPOps + c.ALUOps + c.PSOps + c.Threads
}

// simSuite measures the simulator's wall-clock on the FFT, Reps times.
func simSuite(s BenchSettings, add addFunc) error {
	cfg, name, err := simConfig(s)
	if err != nil {
		return err
	}
	var elapsed, usefulRate, engineRate []float64
	for r := 0; r < s.Reps; r++ {
		fr, err := simulateFFT(cfg, s.N, nil)
		if err != nil {
			return err
		}
		st, useful := fr.m.SimStats(), usefulEvents(fr.m.Counters)
		if r == 0 {
			add(name, "cycles", "cycles", float64(fr.run.TotalCycles()))
			add(name, "useful_events", "count", float64(useful))
			add(name, "events", "count", float64(st.Events))
			add(name, "windows", "count", float64(st.Windows))
			add(name, "barriers", "count", float64(st.Barriers))
			add(name, "messages", "count", float64(st.Messages))
		}
		sec := fr.elapsed.Seconds()
		elapsed = append(elapsed, sec)
		usefulRate = append(usefulRate, float64(useful)/sec)
		engineRate = append(engineRate, float64(st.Events)/sec)
	}
	add(name, "elapsed", "s", elapsed...)
	add(name, "useful_events_per_sec", "1/s", usefulRate...)
	add(name, "engine_events_per_sec", "1/s", engineRate...)
	return nil
}

// obsModes are the obs suite's observability settings, "off" first.
var obsModes = []struct {
	name  string
	setup func(*xmt.Machine) error
}{
	{"off", nil},
	{"telemetry", func(m *xmt.Machine) error {
		m.SetTelemetry(&sim.Telemetry{})
		return nil
	}},
	{"live", func(m *xmt.Machine) error {
		m.AttachLiveMetrics(metrics.NewMachineSet(metrics.NewRegistry()), 0)
		m.SetTelemetry(&sim.Telemetry{})
		return nil
	}},
}

// obsSuite measures observability overhead on the FFT and the metric
// primitives the simulation hot path touches.
func obsSuite(s BenchSettings, add addFunc) error {
	cfg, name, err := simConfig(s)
	if err != nil {
		return err
	}
	warm, err := simulateFFT(cfg, s.N, nil) // warm-up, untimed
	if err != nil {
		return err
	}
	cycles, events := warm.run.TotalCycles(), warm.m.SimStats().Events
	elapsed := make([][]float64, len(obsModes))
	rate := make([][]float64, len(obsModes))
	for r := 0; r < s.Reps; r++ {
		for k := range obsModes {
			i := (r + k) % len(obsModes)
			fr, err := simulateFFT(cfg, s.N, obsModes[i].setup)
			if err != nil {
				return err
			}
			if c, e := fr.run.TotalCycles(), fr.m.SimStats().Events; c != cycles || e != events {
				return fmt.Errorf("mode %q perturbed the simulation (cycles %d vs %d, events %d vs %d)",
					obsModes[i].name, c, cycles, e, events)
			}
			elapsed[i] = append(elapsed[i], fr.elapsed.Seconds())
			rate[i] = append(rate[i], float64(events)/fr.elapsed.Seconds())
		}
	}
	add(name, "cycles", "cycles", float64(cycles))
	add(name, "events", "count", float64(events))
	var off BenchCase
	for i, mode := range obsModes {
		modeName := fmt.Sprintf("%s mode=%s", name, mode.name)
		c := add(modeName, "elapsed", "s", elapsed[i]...)
		if i == 0 {
			off = c
		}
		add(modeName, "events_per_sec", "1/s", rate[i]...)
		add(modeName, "overhead", "%", (c.Median-off.Median)/off.Median*100)
	}
	return hotPathCases(s.Reps, add)
}

// hotPathCases times the metric primitives on a bridged registry, reps
// times, and counts their allocations, which must be zero.
func hotPathCases(reps int, add addFunc) error {
	reg := metrics.NewRegistry()
	metrics.NewMachineSet(reg)
	c := reg.Counter("bench_counter", "bench")
	g := reg.Gauge("bench_gauge", "bench")
	h := reg.Histogram("bench_histogram", "bench", 1, 10, 100, 1000)
	timed := func(runs int, f func()) []float64 {
		ns := make([]float64, reps)
		for r := range ns {
			ns[r] = nsPerOp(runs, f)
		}
		return ns
	}
	for _, p := range []struct {
		name string
		f    func()
	}{
		{"counter_add", func() { c.Add(3) }},
		{"gauge_set", func() { g.Set(42.5) }},
		{"histogram_observe", func() { h.Observe(17) }},
	} {
		add(p.name, "time", "ns/op", timed(1<<20, p.f)...)
		allocs := add(p.name, "allocs", "allocs/op", allocsPerRun(4096, p.f)).Median
		if allocs != 0 {
			return fmt.Errorf("metric %s allocated %g times per call: the hot path must not allocate", p.name, allocs)
		}
	}
	// One full exposition of the bridged registry.
	add("encode", "time", "ns/op", timed(256, func() { reg.WriteOpenMetrics(io.Discard) })...)
	return nil
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

// faultRates are the fault suite's rates. Each rate r injects NoC drops
// with probability r, NoC corruption with probability r/2 and DRAM
// single-bit errors with probability r per line fetch, all protected
// (retransmit + SECDED). The first, fault-free run is the baseline of
// every other rate's overhead and output check.
var faultRates = []float64{0, 0.005, 0.02, 0.05}

// faultSuite measures how simulated cycles and GFLOPS degrade as the
// NoC retransmit and DRAM ECC machinery absorbs injected faults. Every
// run is deterministic, so each case is one repetition.
func faultSuite(s BenchSettings, add addFunc) error {
	cfg, prefix, err := simConfig(s)
	if err != nil {
		return err
	}
	var baseCycles uint64
	var baseOut []complex64
	for i, rate := range faultRates {
		var setup func(*xmt.Machine) error
		if rate > 0 {
			plan := fault.Plan{Seed: s.FaultSeed, NoCDrop: rate, NoCCorrupt: rate / 2, DRAMBitErr: rate}
			setup = func(m *xmt.Machine) error { return m.EnableFaults(plan) }
		}
		fr, err := simulateFFT(cfg, s.N, setup)
		if err != nil {
			return fmt.Errorf("rate %g: %w", rate, err)
		}
		cycles := fr.run.TotalCycles()
		if i == 0 {
			baseCycles, baseOut = cycles, fr.out
		} else if !slices.Equal(fr.out, baseOut) {
			return fmt.Errorf("rate %g: protected output diverged from the fault-free run (protection contract violated)", rate)
		}
		c := fr.m.Counters
		name := fmt.Sprintf("%s rate=%g", prefix, rate)
		add(name, "cycles", "cycles", float64(cycles))
		add(name, "gflops", "GFLOPS", stats.StandardGFLOPS(s.N*s.N*s.N, cycles, config.ClockGHz))
		add(name, "cycles_overhead", "ratio", float64(cycles)/float64(baseCycles)-1)
		add(name, "noc_drops", "count", float64(c.NoCDropped))
		add(name, "noc_corrupts", "count", float64(c.NoCCorrupted))
		add(name, "noc_retransmits", "count", float64(c.NoCRetransmits))
		add(name, "ecc_corrected", "count", float64(c.ECCCorrected))
		add(name, "ecc_uncorrectable", "count", float64(c.ECCUncorrectable))
	}
	return nil
}

// The serve suite's workload: n = 1024 complex64 forward transforms,
// serveRequests per concurrency level, admission bound serveMaxInflight.
const (
	serveN           = 1024
	serveDtype       = "complex64"
	serveRequests    = 400
	serveMaxInflight = 256
)

var serveLevels = []int{1, 4, 16}

// serveSuite serves on a loopback port and measures every concurrency
// level in turn, Reps times (each level after the first sees a warm plan
// cache: the steady state a long-lived service runs in).
func serveSuite(s BenchSettings, add addFunc) error {
	srv := serve.New(serve.Config{MaxInflight: serveMaxInflight})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		hs.Shutdown(ctx)
	}()
	base := "http://" + ln.Addr().String()
	results := make([][]*loadgen.Result, len(serveLevels))
	for r := 0; r < s.Reps; r++ {
		for i, c := range serveLevels {
			res, err := loadgen.Run(loadgen.Options{
				BaseURL: base, Concurrency: c, Requests: serveRequests, N: serveN, Dtype: serveDtype,
			})
			if err != nil {
				return fmt.Errorf("concurrency %d: %w", c, err)
			}
			if res.Errors > 0 {
				return fmt.Errorf("concurrency %d: %d/%d requests failed", c, res.Errors, serveRequests)
			}
			results[i] = append(results[i], res)
		}
	}
	for i, c := range serveLevels {
		name := fmt.Sprintf("n=%d %s c=%d", serveN, serveDtype, c)
		perRep := func(metric, unit string, f func(*loadgen.Result) float64) {
			v := make([]float64, len(results[i]))
			for r, res := range results[i] {
				v[r] = f(res)
			}
			add(name, metric, unit, v...)
		}
		perRep("p50", "ms", func(r *loadgen.Result) float64 { return r.P50Ms })
		perRep("p90", "ms", func(r *loadgen.Result) float64 { return r.P90Ms })
		perRep("p99", "ms", func(r *loadgen.Result) float64 { return r.P99Ms })
		perRep("max", "ms", func(r *loadgen.Result) float64 { return r.MaxMs })
		perRep("mean", "ms", func(r *loadgen.Result) float64 { return r.MeanMs })
		perRep("throughput", "req/s", func(r *loadgen.Result) float64 { return r.Throughput })
		perRep("rejected_429", "count", func(r *loadgen.Result) float64 { return float64(r.Rejected429) })
		perRep("errors", "count", func(r *loadgen.Result) float64 { return float64(r.Errors) })
	}
	return nil
}

// SimBenchResult is the part of one sim-suite measurement the
// repository benchmark's tests read.
//
// Deprecated: read the "sim" suite of RunBench's record.
type SimBenchResult struct {
	Engine       string // always "sharded", the one engine
	UsefulEvents uint64
}

// SimBenchRecord holds one SimBenchResult.
//
// Deprecated: use BenchRecord.
type SimBenchRecord struct {
	Results []SimBenchResult
}

// RunSimBench runs the sim suite and returns its useful-event count.
// workerCounts is accepted for existing callers; every entry must be 1.
//
// Deprecated: use RunBench with the "sim" suite.
func RunSimBench(tcus, n int, workerCounts []int, reps int) (*SimBenchRecord, error) {
	for _, wc := range workerCounts {
		if wc != 1 {
			return nil, fmt.Errorf("harness: sim-bench worker count %d: the engine runs on one goroutine, so every count must be 1", wc)
		}
	}
	s := BenchSettings{TCUs: tcus, N: n, Reps: reps}
	rec, err := RunBench([]string{"sim"}, s)
	if err != nil {
		return nil, err
	}
	_, name, _ := simConfig(s)
	useful := rec.lookup("sim", name, "useful_events").Median
	return &SimBenchRecord{Results: []SimBenchResult{{Engine: "sharded", UsefulEvents: uint64(useful)}}}, nil
}
