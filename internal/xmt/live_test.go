package xmt

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/metrics"
	"xmtfft/internal/stats"
	"xmtfft/internal/trace"
)

// liveRun executes the differential workload suite on a machine with
// the requested observers attached and returns everything comparable.
func liveRun(t *testing.T, cfg config.Config, withTrace, withLive bool) (shardedRun, *metrics.Registry, *Machine) {
	t.Helper()
	m, err := New(cfg)
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
		m.AttachLiveMetrics(NewMetricSet(reg), 64)
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
// the recorded event and sample streams.
func TestLiveMetricsZeroPerturbation(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _ := liveRun(t, cfg, true, false)
	got, _, _ := liveRun(t, cfg, true, true)
	if !reflect.DeepEqual(got.results, ref.results) {
		t.Error("live metrics perturbed SpawnResults")
	}
	if !reflect.DeepEqual(got.ctrs, ref.ctrs) {
		t.Error("live metrics perturbed counters")
	}
	if !reflect.DeepEqual(got.events, ref.events) {
		t.Error("live metrics perturbed trace events")
	}
	if !reflect.DeepEqual(got.samples, ref.samples) {
		t.Error("live metrics perturbed epoch samples")
	}

	// Live metrics without tracing must also match the no-observer run.
	bare, _, _ := liveRun(t, cfg, false, false)
	solo, _, _ := liveRun(t, cfg, false, true)
	if !reflect.DeepEqual(solo.results, bare.results) || !reflect.DeepEqual(solo.ctrs, bare.ctrs) {
		t.Error("live metrics alone perturbed the run")
	}
}

// TestLiveMetricsPublishedValues checks that after a run (plus a final
// flush) the registry holds the machine's exact totals and the
// exposition parses cleanly with all the series the acceptance criteria
// name: ops, utilization, faults, and every engine series (totals,
// clock, queue depths, per-shard tallies, watchdog).
func TestLiveMetricsPublishedValues(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	m.AttachLiveMetrics(NewMetricSet(reg), 64)
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

	// Engine series: the machine's own engine statistics and watchdog.
	st := m.SimStats()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"xmtfft_sim_events_total", st.Events},
		{"xmtfft_sim_windows_total", st.Windows},
		{"xmtfft_sim_messages_total", st.Messages},
		{"xmtfft_sim_cycle", m.Now()},
		{"xmtfft_sim_pending_events", 0},
		{"xmtfft_watchdog_last_progress_cycle", m.wd.LastProgress()},
		{"xmtfft_watchdog_window_cycles", 1 << 30},
	} {
		if got, ok := exp.Value(c.name, nil); !ok || got != float64(c.want) {
			t.Errorf("%s = %g (present=%v), want %d", c.name, got, ok, c.want)
		}
	}
	if m.wd.LastProgress() == 0 {
		t.Error("watchdog progress never marked")
	}
	var shardSum float64
	for i := range cfg.Clusters {
		lbl := map[string]string{"shard": strconv.Itoa(i)}
		sh := m.eng.Shard(i)
		events, ok := exp.Value("xmtfft_sim_shard_events_total", lbl)
		if !ok || events != float64(sh.Processed) {
			t.Errorf("shard %d events = %g (present=%v), want %d", i, events, ok, sh.Processed)
		}
		shardSum += events
		if got, ok := exp.Value("xmtfft_sim_shard_cycle", lbl); !ok || got != float64(sh.Now()) {
			t.Errorf("shard %d cycle = %g (present=%v), want %d", i, got, ok, sh.Now())
		}
		if got, ok := exp.Value("xmtfft_sim_shard_pending_events", lbl); !ok || got != 0 {
			t.Errorf("shard %d pending = %g (present=%v), want 0", i, got, ok)
		}
	}
	if _, ok := exp.Value("xmtfft_sim_shard_events_total", map[string]string{"shard": strconv.Itoa(cfg.Clusters)}); ok {
		t.Errorf("a shard beyond the machine's %d is published", cfg.Clusters)
	}
	if shardSum != float64(st.Events) {
		t.Errorf("per-shard event sum = %g, want %d", shardSum, st.Events)
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
	m.AttachLiveMetrics(NewMetricSet(reg), 64)

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
	m.AttachLiveMetrics(NewMetricSet(reg), 64)
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

// TestMetricSetRoundTrip: every stats.Counters tally, trace.Sample
// field and engine scalar goes through the metric set into the
// registry, out as OpenMetrics text and back through the strict parser
// unchanged, and Engine reads the engine scalars back.
func TestMetricSetRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	ms := NewMetricSet(reg)
	if _, at := ms.Engine(); !at.IsZero() {
		t.Errorf("heartbeat %v before the first publish, want zero", at)
	}
	eng := EngineSample{
		Cycle: 5000, Pending: 9, Events: 12345, Windows: 678, Messages: 910,
		WatchdogCycle: 4800, WatchdogWindow: 1 << 20,
	}
	ms.set(&stats.Counters{
		FPOps: 111, ALUOps: 222, Loads: 333, Stores: 444, PSOps: 5,
		Threads: 64, Spawns: 3, CacheHits: 900, CacheMisses: 100,
		DRAMBytes: 4096, NoCPackets: 777, Prefetches: 88,
		RowHits: 70, RowMisses: 30,
		NoCDropped: 1, NoCCorrupted: 2, NoCRetransmits: 3,
		ECCCorrected: 4, ECCUncorrectable: 0, SilentFaults: 6,
	}, &trace.Sample{
		Cycle: 4096, FPU: 0.75, LSU: 0.5, DRAM: 0.984375,
		HitRate: 0.9, Outstanding: 17, NoCPackets: 123,
	}, &eng, nil)
	if got, at := ms.Engine(); !reflect.DeepEqual(got, eng) || at.IsZero() {
		t.Errorf("Engine() = %+v at %v, want %+v at a publish time", got, at, eng)
	}

	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := metrics.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, sb.String())
	}
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"xmtfft_ops_total", map[string]string{"kind": "fp"}, 111},
		{"xmtfft_ops_total", map[string]string{"kind": "alu"}, 222},
		{"xmtfft_ops_total", map[string]string{"kind": "load"}, 333},
		{"xmtfft_ops_total", map[string]string{"kind": "store"}, 444},
		{"xmtfft_ops_total", map[string]string{"kind": "ps"}, 5},
		{"xmtfft_threads_total", nil, 64},
		{"xmtfft_spawns_total", nil, 3},
		{"xmtfft_cache_hits_total", nil, 900},
		{"xmtfft_cache_misses_total", nil, 100},
		{"xmtfft_dram_bytes_total", nil, 4096},
		{"xmtfft_noc_packets_total", nil, 777},
		{"xmtfft_prefetches_total", nil, 88},
		{"xmtfft_dram_row_hits_total", nil, 70},
		{"xmtfft_dram_row_misses_total", nil, 30},
		{"xmtfft_faults_total", map[string]string{"kind": "noc_dropped"}, 1},
		{"xmtfft_faults_total", map[string]string{"kind": "noc_corrupted"}, 2},
		{"xmtfft_faults_total", map[string]string{"kind": "noc_retransmit"}, 3},
		{"xmtfft_faults_total", map[string]string{"kind": "ecc_corrected"}, 4},
		{"xmtfft_faults_total", map[string]string{"kind": "ecc_uncorrectable"}, 0},
		{"xmtfft_faults_total", map[string]string{"kind": "silent"}, 6},
		{"xmtfft_util_fpu", nil, 0.75},
		{"xmtfft_util_lsu", nil, 0.5},
		{"xmtfft_util_dram", nil, 0.984375},
		{"xmtfft_cache_hit_rate", nil, 0.9},
		{"xmtfft_outstanding_threads", nil, 17},
		{"xmtfft_sample_cycle", nil, 4096},
		{"xmtfft_epoch_noc_packets", nil, 123},
		{"xmtfft_sim_events_total", nil, 12345},
		{"xmtfft_sim_windows_total", nil, 678},
		{"xmtfft_sim_messages_total", nil, 910},
		{"xmtfft_sim_cycle", nil, 5000},
		{"xmtfft_sim_pending_events", nil, 9},
		{"xmtfft_watchdog_last_progress_cycle", nil, 4800},
		{"xmtfft_watchdog_window_cycles", nil, 1 << 20},
	}
	for _, c := range checks {
		if got, ok := exp.Value(c.name, c.labels); !ok || got != c.want {
			t.Errorf("%s%v = %g (present=%v), want %g", c.name, c.labels, got, ok, c.want)
		}
	}
	var samples int
	for _, f := range exp.Families {
		samples += len(f.Samples)
	}
	if samples != len(checks) {
		t.Errorf("exposition has %d samples, want exactly the %d checked", samples, len(checks))
	}
}
