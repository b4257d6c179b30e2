package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/trace"
	"xmtfft/internal/xmt"
)

func TestRecorderEventAccessors(t *testing.T) {
	r := trace.NewRecorder(10)
	r.Spawn(5, 42, "phase")
	r.ThreadStart(10, 3, 0, 7)
	r.Segment(12, 20, 3, trace.SegFLOP)
	r.MemAccess(13, 25, 3, 1, 0x40, false, true)
	r.NoC(12, 13, 0, 1)
	r.ThreadRetire(30, 3, 7)
	r.Join(40)

	if len(r.Events) != 7 {
		t.Fatalf("events = %d, want 7", len(r.Events))
	}
	if r.Events[0].Kind != trace.EvSpawn || r.Events[0].Label != "phase" || r.Events[0].ID != 42 {
		t.Fatalf("spawn event = %+v", r.Events[0])
	}
	mem := r.Events[3]
	if mem.Kind != trace.EvMemAccess || mem.Flags&trace.FlagHit == 0 || mem.Flags&trace.FlagWrite != 0 {
		t.Fatalf("mem event = %+v", mem)
	}
}

// TestSummaryDistributions pins the summary's thread-lifetime and
// epoch-utilization lines on a hand-built recording: retires pair with
// the open start on their TCU (a retire with none is ignored), quantiles
// print the nearest-rank sample, fractions clamp to 0..100 percent and a
// negative outstanding count is left out.
func TestSummaryDistributions(t *testing.T) {
	r := trace.NewRecorder(100)
	r.Spawn(0, 3, "s")
	r.ThreadStart(10, 3, 0, 7)
	r.ThreadStart(12, 4, 0, 8)
	r.ThreadRetire(20, 5, 1) // nothing open on TCU 5
	r.ThreadRetire(30, 3, 7) // 20 cycles
	r.ThreadRetire(60, 4, 8) // 48 cycles
	r.ThreadStart(60, 4, 0, 9)
	r.ThreadRetire(61, 4, 9) // 1 cycle
	r.Join(70)
	r.AddSample(trace.Sample{Cycle: 100, FPU: 0.5, LSU: 0.25, DRAM: 1.7, HitRate: 0.9, Outstanding: 12})
	r.AddSample(trace.Sample{Cycle: 200, FPU: -0.1, Outstanding: -1})
	var sb strings.Builder
	if err := r.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"thread lifetime (cycles): n=3 mean=23.0 p50=20 p95=48 max=48 stddev=19.3\n",
		"epoch utilization (100-cycle epochs):\n",
		"  fpu %        n=2 mean=25.0 p50=0 p95=50 max=50\n",
		"  lsu %        n=2 mean=12.5 p50=0 p95=25 max=25\n",
		"  dram %       n=2 mean=50.0 p50=0 p95=100 max=100\n",
		"  cache hit %  n=2 mean=45.0 p50=0 p95=90 max=90\n",
		"  outstanding  n=1 mean=12.0 p50=12 p95=12 max=12\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sb.String())
		}
	}

	// A quantile is a sample, not the edge of a bucket above it: of the
	// outstanding counts 7 and 9 the median is 7, and with DRAM under 1%
	// busy in one of two epochs the median is 0.
	exact := trace.NewRecorder(100)
	exact.Spawn(0, 0, "s")
	exact.Join(5)
	exact.AddSample(trace.Sample{Cycle: 100, DRAM: 0.004, Outstanding: 9})
	exact.AddSample(trace.Sample{Cycle: 200, DRAM: 0.6, Outstanding: 7})
	sb.Reset()
	if err := exact.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"  dram %       n=2 mean=30.0 p50=0 p95=60 max=60\n",
		"  outstanding  n=2 mean=8.0 p50=7 p95=9 max=9\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sb.String())
		}
	}

	// No threads and no samples: an empty lifetime line, no epoch block.
	empty := trace.NewRecorder(0)
	empty.Spawn(0, 0, "idle")
	empty.Join(5)
	sb.Reset()
	if err := empty.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "thread lifetime (cycles): n=0 stddev=0.0\n") ||
		strings.Contains(out, "epoch utilization") {
		t.Errorf("empty-run summary:\n%s", out)
	}
}

func TestSegmentKindNames(t *testing.T) {
	for k, want := range map[trace.SegmentKind]string{
		trace.SegFLOP: "flop", trace.SegPS: "ps",
		trace.SegLoad: "load", trace.SegStore: "store",
		trace.SegmentKind(99): "seg?",
	} {
		if got := k.Name(); got != want {
			t.Errorf("SegmentKind(%d).Name() = %q, want %q", k, got, want)
		}
	}
}

// tracedFFT runs the acceptance-criteria workload — the equivalent of
// `xmtfft -config 4k -tcus 64 -n 16 -dims 2 -trace ...` — and returns
// its recorder.
func tracedFFT(t *testing.T) *trace.Recorder {
	t.Helper()
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := xmt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(256)
	rec.Label = cfg.Name
	m.AttachRecorder(rec)
	tr, err := core.New2D(m, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(fft.Forward); err != nil {
		t.Fatal(err)
	}
	return rec
}

// The acceptance round-trip: export the trace, re-parse it through the
// validator and the schema structs, and check the lane structure.
func TestPerfettoExportRoundTrip(t *testing.T) {
	rec := tracedFFT(t)

	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exporter emitted an invalid trace: %v", err)
	}

	var tr trace.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("schema round-trip failed: %v", err)
	}
	if tr.DisplayTimeUnit == "" {
		t.Fatal("missing displayTimeUnit")
	}
	var spawnSpans, threadSpans, counters, instants int
	counterNames := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Pid == 1:
			spawnSpans++
			if ev.Name == "" || ev.Name == "spawn" {
				t.Fatalf("machine-lane span lost its section label: %+v", ev)
			}
		case ev.Ph == "X" && ev.Pid == 2 && strings.HasPrefix(ev.Name, "t"):
			threadSpans++
		case ev.Ph == "C":
			counters++
			counterNames[ev.Name] = true
		case ev.Ph == "i":
			instants++
		}
	}
	if spawnSpans == 0 {
		t.Fatal("no spawn/join spans on the machine lane")
	}
	if threadSpans == 0 {
		t.Fatal("no thread spans on the TCU lanes")
	}
	if instants == 0 {
		t.Fatal("no memory/NoC instant events")
	}
	for _, want := range []string{"fpu util %", "dram util %", "noc pkts/epoch"} {
		if !counterNames[want] {
			t.Fatalf("missing counter track %q (have %v)", want, counterNames)
		}
	}
	if counters == 0 {
		t.Fatal("no counter samples exported")
	}
}

func TestPerfettoExportDeterministic(t *testing.T) {
	a, b := tracedFFT(t), tracedFFT(t)
	var ba, bb bytes.Buffer
	if err := a.WritePerfetto(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WritePerfetto(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("identical runs produced different trace files")
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"empty events":   `{"traceEvents":[],"displayTimeUnit":"ns"}`,
		"unnamed event":  `{"traceEvents":[{"name":"","ph":"X","ts":0,"pid":1,"tid":0}],"displayTimeUnit":"ns"}`,
		"bad phase":      `{"traceEvents":[{"name":"x","ph":"Z","ts":0,"pid":1,"tid":0}],"displayTimeUnit":"ns"}`,
		"valueless ctr":  `{"traceEvents":[{"name":"c","ph":"C","ts":0,"pid":3,"tid":0,"args":{}}],"displayTimeUnit":"ns"}`,
		"negative ts":    `{"traceEvents":[{"name":"x","ph":"X","ts":-1,"pid":1,"tid":0}],"displayTimeUnit":"ns"}`,
		"negative dur":   `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-2,"pid":1,"tid":0}],"displayTimeUnit":"ns"}`,
		"bad inst scope": `{"traceEvents":[{"name":"x","ph":"i","ts":0,"pid":2,"tid":0,"s":"q"}],"displayTimeUnit":"ns"}`,
	}
	for name, data := range cases {
		if err := trace.ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted malformed trace", name)
		}
	}
	ok := `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":5,"pid":1,"tid":0}],"displayTimeUnit":"ns"}`
	if err := trace.ValidateChromeTrace([]byte(ok)); err != nil {
		t.Errorf("validator rejected a minimal valid trace: %v", err)
	}
}

func TestWriteSummary(t *testing.T) {
	rec := tracedFFT(t)
	var sb strings.Builder
	if err := rec.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"trace 4k/64:", "sections", "fft r0", "twiddle init r0",
		"thread lifetime", "epoch utilization", "dram %", "outstanding",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	// Empty recorder: header only, no panic.
	var eb strings.Builder
	if err := trace.NewRecorder(0).WriteSummary(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.String(), "0 events") {
		t.Errorf("empty summary = %q", eb.String())
	}
}

func TestFaultEventsExportAndValidate(t *testing.T) {
	rec := trace.NewRecorder(0)
	rec.Spawn(0, 4, "faulty")
	rec.Fault(10, trace.FaultNoCDrop, 3, 1)
	rec.Fault(20, trace.FaultNoCCorrupt, 3, 2)
	rec.Fault(30, trace.FaultNoCGiveUp, 3, 16)
	rec.Fault(40, trace.FaultECCCorrected, 7, 4096)
	rec.Fault(50, trace.FaultECCUncorrectable, 7, 8192)
	rec.Fault(0, trace.FaultClusterDead, 5, 0)
	rec.Join(60)

	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("fault trace failed validation: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"noc drop", "noc corrupt", "noc give-up",
		"ecc corrected", "ecc uncorrectable", "cluster dead", "faults",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("perfetto export missing %q", want)
		}
	}

	var sb strings.Builder
	if err := rec.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "faults: noc drop=1") {
		t.Errorf("summary missing fault tallies:\n%s", sb.String())
	}

	// No faults recorded: no "faults" lane metadata, no summary line.
	clean := trace.NewRecorder(0)
	clean.Spawn(0, 1, "clean")
	clean.Join(10)
	var cb bytes.Buffer
	if err := clean.WritePerfetto(&cb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cb.String(), `"faults"`) {
		t.Error("clean trace advertises a faults lane")
	}
}

func TestFaultKindNames(t *testing.T) {
	names := map[trace.FaultKind]string{
		trace.FaultNoCDrop:          "noc drop",
		trace.FaultNoCCorrupt:       "noc corrupt",
		trace.FaultNoCGiveUp:        "noc give-up",
		trace.FaultECCCorrected:     "ecc corrected",
		trace.FaultECCUncorrectable: "ecc uncorrectable",
		trace.FaultClusterDead:      "cluster dead",
		trace.FaultKind(250):        "fault?",
	}
	for k, want := range names {
		if got := k.Name(); got != want {
			t.Errorf("FaultKind(%d).Name() = %q, want %q", k, got, want)
		}
	}
}
