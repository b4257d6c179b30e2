// Command xmtperf is the repository benchmark: it runs one workload
// in-process through the packages' public functions, checks every
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.0021, "unit": "s"}, ...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash xmtperf/run.sh --workload sim-64k-dram --seed 1 --seconds 20 --trace 0
//
// Every input is generated from -seed. A traced run (-trace 1) runs the
// workload twice for half the time each, untraced in a child process and
// then traced, reports the per-layer metrics of the traced half and the
// tracing overhead on each end-to-end metric, and writes the spans as
// Chrome trace-event JSON under -trace-dir.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each surface sees. Every workload
// reports all of them (each is defined per operation of the workload;
// see README.md in this directory). A tail percentile is not among
// them: only serve-1d-c2 runs enough operations for one to have ten
// samples beyond it, so serve's p90 and p99 are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"host_gflops", "GFLOPS"},
	{"p50_ms", "ms"},
	{"rps", "1/s"},
	{"rel_err", "ratio"},
}

// perLayer are the traced run's metrics, named after the package they
// measure. A layer a workload does not reach reports 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"core.fft_cycles", "cycles"}, {"core.rotate_cycles", "cycles"}, {"core.twiddle_cycles", "cycles"},
		{"core.fft_host_s", "s"}, {"core.rotate_host_s", "s"}, {"core.twiddle_host_s", "s"},
		{"xmt.fpu_util", "ratio"}, {"xmt.lsu_util", "ratio"}, {"xmt.dram_util", "ratio"},
		{"xmt.threads", "count"}, {"sim_gflops", "GFLOPS"},
		{"sim.events", "count"}, {"sim.windows", "count"}, {"sim.barriers", "count"},
		{"sim.messages", "count"}, {"sim.ns_per_event", "ns"}, {"sim_mops", "Mop/s"},
		{"mem.hit_rate", "ratio"}, {"mem.dram_bytes", "B"}, {"mem.row_hit_rate", "ratio"},
		{"mem.queue_delay_cycles", "cycles"}, {"mem.channel_busy_cycles", "cycles"},
		{"noc.packets", "count"}, {"noc.blocked_cycles", "cycles"}, {"noc.blocked_per_packet", "cycles"},
		{"model.cycles", "cycles"}, {"model.ratio", "ratio"},
	}
	for _, n := range sweepSizes {
		d = append(d, metricDef{fmt.Sprintf("fft.n%d_gflops", n), "GFLOPS"})
	}
	d = append(d, metricDef{"fft.leaf_calls", "count"},
		metricDef{"serve.decode_ms", "ms"}, metricDef{"serve.exec_ms", "ms"},
		metricDef{"serve.encode_ms", "ms"}, metricDef{"serve.rest_ms", "ms"},
		metricDef{"serve.p90_ms", "ms"}, metricDef{"serve.p99_ms", "ms"},
		metricDef{"serve.coalesce_rate", "ratio"},
		metricDef{"serve.rejected", "count"})
	for _, m := range endToEnd {
		d = append(d, metricDef{"overhead." + m.name, "ratio"})
	}
	return d
}()

// runCtx is what a workload receives: its seed, how long to measure,
// and the span recorder (nil when untraced).
type runCtx struct {
	seed    uint64
	seconds float64
	rec     *recorder
}

// outcome is what a workload returns: operations attempted and failed,
// its end-to-end and per-layer values, a digest of the simulated
// statistics ("" where nothing is simulated), and lines for the log.
type outcome struct {
	attempted, failed int
	e2e, layer        map[string]float64
	digest            string
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	name, why string
	run       func(runCtx) (*outcome, error)
}

var workloads = []workload{
	{"sim-64k-dram", "64^3 complex64 FFT in the detailed simulator, 64k config at 1024 TCUs: data is 4x the modelled cache, so DRAM-bound", runSim},
	{"host-1d-sweep", "serial in-cache 1D transforms at every size 64..8192, 2^22 points each: all leaves and the composed path", runSweep},
	{"serve-1d-c2", "closed loop of 2 clients on loopback sending n=1024 complex64 forward requests to serve.New with CLI defaults", runServe},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its Chrome trace to")
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmtperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmtperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// run executes one workload and assembles the result record. Log lines
// go to standard output before the result line.
func run(name string, seed uint64, seconds float64, trace int, traceDir string) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
	case seconds <= 0 || math.IsInf(seconds, 0) || math.IsNaN(seconds):
		return nil, fmt.Errorf("-seconds must be positive, got %v", seconds)
	case trace != 0 && trace != 1:
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	meta := readHostMeta()
	cpu0 := readCPUTimes()
	var out *outcome
	var defs []metricDef
	if trace == 0 {
		o, err := w.run(runCtx{seed: seed, seconds: seconds})
		if err != nil {
			return nil, err
		}
		out, defs = o, endToEnd
	} else {
		o, err := runTraced(w, seed, seconds, traceDir)
		if err != nil {
			return nil, err
		}
		out, defs = o, perLayer
	}
	meta.StealShare = stealShare(cpu0, readCPUTimes())
	mb, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mb)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	if out.digest != "" {
		fmt.Printf("digest %s %s\n", name, out.digest)
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]jsonMetric{}}
	if res.Attempted < 1 {
		return nil, errors.New("no operation completed")
	}
	for _, d := range defs {
		v, ok := out.e2e[d.name]
		if trace == 1 {
			v = out.layer[d.name] // absent: the workload does not reach that layer
		} else if !ok {
			return nil, fmt.Errorf("workload %s did not report %s", name, d.name)
		}
		switch {
		case math.IsInf(v, 1):
			// A percentile that lands on a failed operation: JSON has no
			// infinity, so report the largest number it has.
			v = math.MaxFloat64
		case math.IsNaN(v) || math.IsInf(v, -1):
			return nil, fmt.Errorf("workload %s reported %s = %v", name, d.name, v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// runTraced runs the workload untraced and then traced for half the
// time each. The untraced half runs in a child process of this program
// so that both halves start from a fresh process, as every untraced run
// does, and each peak resident set is the half's own. The traced half
// supplies the per-layer metrics; the overhead metrics compare its
// end-to-end values with the untraced half's. Both halves must agree on
// the simulated statistics.
func runTraced(w *workload, seed uint64, seconds float64, dir string) (*outcome, error) {
	base, err := runChild(w.name, seed, seconds/2)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	out, err := w.run(runCtx{seed: seed, seconds: seconds / 2, rec: rec})
	if err != nil {
		return nil, err
	}
	if out.digest != base.digest {
		out.notef("FAIL traced digest %q differs from untraced %q", out.digest, base.digest)
		out.failed = out.attempted
	}
	for _, m := range endToEnd {
		if b := base.e2e[m.name]; b != 0 {
			out.layer["overhead."+m.name] = out.e2e[m.name]/b - 1
		}
	}
	out.attempted += base.attempted
	out.failed += base.failed

	spans := rec.closed()
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		out.notef("self_time %-6s %.6f s", l, self[l].Seconds())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	if err := writeChrome(f, spans, w.name); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	out.notef("trace %s (%d spans)", path, len(spans))
	return out, nil
}

// runChild runs an untraced workload in a child process of this
// program, waits for it, and reads back its result and digest.
func runChild(name string, seed uint64, seconds float64) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("untraced half: %w", err)
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("untraced half: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("untraced half: result line: %w", err)
	}
	o := newOutcome()
	o.attempted, o.failed = res.Attempted, res.Failed
	for k, m := range res.Metrics {
		o.e2e[k] = m.Value
	}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "digest" && f[1] == name {
			o.digest = f[2]
		}
	}
	return o, nil
}
