package xmt

import (
	"reflect"
	"strings"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/metrics"
	"xmtfft/internal/sim"
	"xmtfft/internal/trace"
)

// liveRun executes the differential workload suite on a machine with
// the requested observers attached and returns everything comparable.
func liveRun(t *testing.T, cfg config.Config, workers int, withTrace, withLive bool) (shardedRun, *metrics.Registry, *Machine) {
	t.Helper()
	m, err := NewParallel(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	var rec *trace.Recorder
	if withTrace {
		rec = trace.NewRecorder(64)
		m.AttachRecorder(rec)
	}
	var reg *metrics.Registry
	if withLive {
		reg = metrics.NewRegistry()
		m.AttachLiveMetrics(metrics.NewMachineSet(reg), 64)
		m.SetTelemetry(&sim.Telemetry{})
	}
	var out shardedRun
	for _, w := range diffWorkloads(cfg.TCUs) {
		m.EnablePrefetch(w.prefetch)
		m.Section(w.name)
		res, err := m.Spawn(w.threads, w.prog)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		out.results = append(out.results, res)
		m.AdvanceSerial(100)
	}
	out.ctrs = m.Counters
	if rec != nil {
		out.events = rec.Events
		out.samples = rec.Samples
	}
	return out, reg, m
}

// TestLiveMetricsZeroPerturbation is the bit-identical off-state test:
// attaching the live metrics sampler (alone or chained after the trace
// sampler) must not change spawn results, counters, or — when tracing —
// the recorded event and sample streams, at any worker count.
func TestLiveMetricsZeroPerturbation(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ref, _, _ := liveRun(t, cfg, workers, true, false)
		got, _, _ := liveRun(t, cfg, workers, true, true)
		if !reflect.DeepEqual(got.results, ref.results) {
			t.Errorf("workers=%d: live metrics perturbed SpawnResults", workers)
		}
		if !reflect.DeepEqual(got.ctrs, ref.ctrs) {
			t.Errorf("workers=%d: live metrics perturbed counters", workers)
		}
		if !reflect.DeepEqual(got.events, ref.events) {
			t.Errorf("workers=%d: live metrics perturbed trace events", workers)
		}
		if !reflect.DeepEqual(got.samples, ref.samples) {
			t.Errorf("workers=%d: live metrics perturbed epoch samples", workers)
		}

		// Live metrics without tracing must also match the no-observer run.
		bare, _, _ := liveRun(t, cfg, workers, false, false)
		solo, _, _ := liveRun(t, cfg, workers, false, true)
		if !reflect.DeepEqual(solo.results, bare.results) || !reflect.DeepEqual(solo.ctrs, bare.ctrs) {
			t.Errorf("workers=%d: live metrics alone perturbed the run", workers)
		}
	}
}

// TestLiveMetricsPublishedValues checks that after a run (plus a final
// flush) the bridged registry holds the machine's exact totals and the
// exposition parses cleanly with all the series the acceptance criteria
// name: per-shard event rates, utilization, faults, watchdog heartbeat.
func TestLiveMetricsPublishedValues(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewParallel(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	m.AttachLiveMetrics(metrics.NewMachineSet(reg), 64)
	tel := &sim.Telemetry{}
	m.SetTelemetry(tel)
	m.SetWatchdog(1 << 30)

	for _, w := range diffWorkloads(cfg.TCUs) {
		m.EnablePrefetch(w.prefetch)
		m.Section(w.name)
		if _, err := m.Spawn(w.threads, w.prog); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		m.AdvanceSerial(100)
	}
	m.FlushLiveMetrics()

	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := metrics.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}

	want := map[string]float64{
		"fp":    float64(m.Counters.FPOps),
		"alu":   float64(m.Counters.ALUOps),
		"load":  float64(m.Counters.Loads),
		"store": float64(m.Counters.Stores),
		"ps":    float64(m.Counters.PSOps),
	}
	for kind, v := range want {
		got, ok := exp.Value("xmtfft_ops_total", map[string]string{"kind": kind})
		if !ok || got != v {
			t.Errorf("xmtfft_ops_total{kind=%q} = %g (present=%v), want %g", kind, got, ok, v)
		}
	}
	if got, ok := exp.Value("xmtfft_threads_total", nil); !ok || got != float64(m.Counters.Threads) {
		t.Errorf("threads = %g, want %d", got, m.Counters.Threads)
	}
	if got, ok := exp.Value("xmtfft_dram_bytes_total", nil); !ok || got != float64(m.Counters.DRAMBytes) {
		t.Errorf("dram bytes = %g, want %d", got, m.Counters.DRAMBytes)
	}
	if got, ok := exp.Value("xmtfft_faults_total", map[string]string{"kind": "silent"}); !ok || got != 0 {
		t.Errorf("fault series missing or nonzero on a fault-free run: %g %v", got, ok)
	}
	if got, ok := exp.Value("xmtfft_sample_cycle", nil); !ok || got == 0 {
		t.Errorf("sample cycle = %g (present=%v), want > 0", got, ok)
	}
	if _, ok := exp.Value("xmtfft_util_dram", nil); !ok {
		t.Error("xmtfft_util_dram missing")
	}

	// Engine telemetry: per-shard series present and consistent.
	stats := m.SimStats()
	if got := tel.Events.Load(); got != stats.Events {
		t.Errorf("telemetry events = %d, want %d", got, stats.Events)
	}
	if got := tel.Cycle.Load(); got != m.Now() {
		t.Errorf("telemetry cycle = %d, want %d", got, m.Now())
	}
	view := tel.ShardView()
	if len(view) != cfg.Clusters {
		t.Fatalf("telemetry shard count = %d, want %d", len(view), cfg.Clusters)
	}
	var shardSum uint64
	for _, sh := range view {
		shardSum += sh.Events.Load()
	}
	if shardSum != stats.Events {
		t.Errorf("per-shard event sum = %d, want %d", shardSum, stats.Events)
	}
	if tel.WatchdogWindow.Load() != 1<<30 {
		t.Errorf("watchdog window not published: %d", tel.WatchdogWindow.Load())
	}
	if tel.WatchdogLast.Load() == 0 {
		t.Error("watchdog progress never published")
	}

	if got := m.CurrentPhase(); got != "mixed" {
		t.Errorf("CurrentPhase = %q, want %q (last Section)", got, "mixed")
	}
}

// TestLiveSampleMatchesTraceSample: the live sampler and the trace
// epoch sampler share utilSample, so with equal epochs the last
// published gauge values must equal the recorder's last sample.
func TestLiveSampleMatchesTraceSample(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(64)
	m.AttachRecorder(rec)
	reg := metrics.NewRegistry()
	m.AttachLiveMetrics(metrics.NewMachineSet(reg), 64)

	w := diffWorkloads(cfg.TCUs)[0]
	if _, err := m.Spawn(w.threads, w.prog); err != nil {
		t.Fatal(err)
	}
	if len(rec.Samples) == 0 {
		t.Fatal("no trace samples recorded")
	}
	last := rec.Samples[len(rec.Samples)-1]

	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := metrics.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"xmtfft_sample_cycle":        float64(last.Cycle),
		"xmtfft_util_fpu":            last.FPU,
		"xmtfft_util_lsu":            last.LSU,
		"xmtfft_util_dram":           last.DRAM,
		"xmtfft_cache_hit_rate":      last.HitRate,
		"xmtfft_outstanding_threads": float64(last.Outstanding),
		"xmtfft_epoch_noc_packets":   float64(last.NoCPackets),
	} {
		got, ok := exp.Value(name, nil)
		if !ok || got != want {
			t.Errorf("%s = %g (present=%v), want %g", name, got, ok, want)
		}
	}
}

// TestAttachLiveMetricsDetach verifies detaching removes the hook and
// restores the phase to empty.
func TestAttachLiveMetricsDetach(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	m.AttachLiveMetrics(metrics.NewMachineSet(reg), 64)
	m.Section("p1")
	if m.CurrentPhase() != "p1" {
		t.Fatal("phase not tracked while attached")
	}
	m.AttachLiveMetrics(nil, 0)
	if m.CurrentPhase() != "" {
		t.Fatal("phase survives detach")
	}
	w := diffWorkloads(cfg.TCUs)[0]
	if _, err := m.Spawn(w.threads, w.prog); err != nil {
		t.Fatal(err)
	}
}
