package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xmtfft/internal/config"
	"xmtfft/internal/metrics"
	"xmtfft/internal/xmt"
)

// newWatched builds a 64-TCU machine (two shards) watched by obs.
func newWatched(t *testing.T, obs *Obs) *xmt.Machine {
	t.Helper()
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := xmt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs.Watch(m)
	return m
}

// spawn runs n load-compute-store threads on m and flushes its series.
func spawn(t *testing.T, m *xmt.Machine, n int) {
	t.Helper()
	_, err := m.Spawn(n, xmt.ProgramFunc(func(id int, buf []xmt.Op) []xmt.Op {
		addr := uint64(id) * 64
		return append(buf, xmt.Load(addr), xmt.FLOP(8), xmt.Store(addr))
	}))
	if err != nil {
		t.Fatal(err)
	}
	m.FlushLiveMetrics()
}

// parseRegistry encodes the registry and parses it back.
func parseRegistry(t *testing.T, obs *Obs) *metrics.Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Registry.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := metrics.Parse(&buf)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	return exp
}

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, body
}

// TestObsEndToEnd is the acceptance-criteria test: serve the
// observability endpoints while a detailed ablation sweep runs, scrape
// /metrics mid-run and after, and validate the exposition with the
// in-repo parser — per-shard event rates, utilization, fault and
// watchdog series all present.
func TestObsEndToEnd(t *testing.T) {
	obs := NewObs()
	obs.Epoch = 256
	addr, err := obs.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	base := "http://" + addr

	done := make(chan error, 1)
	go func() {
		_, err := AblationReport(io.Discard, 64, 8, AblationOptions{Obs: obs})
		done <- err
	}()

	// Scrape while the sweep runs: every response must be valid
	// OpenMetrics, whatever instant it lands on.
	var midrunParses int
loop:
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			break loop
		default:
			resp, body := scrape(t, base+"/metrics")
			if got := resp.Header.Get("Content-Type"); got != metrics.ContentType {
				t.Fatalf("Content-Type = %q, want %q", got, metrics.ContentType)
			}
			if _, err := metrics.Parse(bytes.NewReader(body)); err != nil {
				t.Fatalf("mid-run exposition invalid: %v\n%s", err, body)
			}
			midrunParses++
		}
	}
	if midrunParses == 0 {
		t.Error("sweep finished before any mid-run scrape (should not happen)")
	}

	// Final scrape: all acceptance series present with sane values.
	_, body := scrape(t, base+"/metrics")
	exp, err := metrics.Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("final exposition invalid: %v", err)
	}
	if v, ok := exp.Value("xmtfft_sim_events_total", nil); !ok || v <= 0 {
		t.Errorf("xmtfft_sim_events_total = %g (present=%v), want > 0", v, ok)
	}
	if v, ok := exp.Value("xmtfft_sim_shard_events_total", map[string]string{"shard": "0"}); !ok || v <= 0 {
		t.Errorf("per-shard event series missing or zero: %g %v", v, ok)
	}
	if _, ok := exp.Value("xmtfft_sim_shard_events_per_second", map[string]string{"shard": "0"}); !ok {
		t.Error("per-shard event-rate series missing")
	}
	if _, ok := exp.Value("xmtfft_util_dram", nil); !ok {
		t.Error("utilization series missing")
	}
	if _, ok := exp.Value("xmtfft_faults_total", map[string]string{"kind": "silent"}); !ok {
		t.Error("fault series missing")
	}
	if _, ok := exp.Value("xmtfft_watchdog_heartbeat_age_seconds", nil); !ok {
		t.Error("watchdog heartbeat series missing")
	}
	if v, ok := exp.Value("xmtfft_ops_total", map[string]string{"kind": "fp"}); !ok || v <= 0 {
		t.Errorf("machine op counters not bridged: %g %v", v, ok)
	}

	// /progress reflects the finished sweep.
	resp, body := scrape(t, base+"/progress")
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Fatalf("progress Content-Type = %q", got)
	}
	var p Progress
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("progress JSON invalid: %v\n%s", err, body)
	}
	if p.Events == 0 || p.Cycle == 0 {
		t.Errorf("progress shows no work: %+v", p)
	}
	if p.WorkDone != 5 || p.WorkTotal != 5 {
		t.Errorf("work units = %d/%d, want 5/5", p.WorkDone, p.WorkTotal)
	}
	// The transform names its own sections as it runs ("rotate r2", ...),
	// so the live phase is whatever the simulation last entered — it just
	// has to be present.
	if p.Phase == "" {
		t.Error("phase empty after an observed sweep")
	}
	if p.HeartbeatAgeSec < 0 {
		t.Error("heartbeat never published")
	}

	// pprof is mounted.
	resp, _ = scrape(t, base+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}
	resp, _ = scrape(t, base+"/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", resp.StatusCode)
	}
}

// TestObsSnapshot: the periodic snapshot writer leaves a parseable
// exposition behind, including after Close's final flush.
func TestObsSnapshot(t *testing.T) {
	obs := NewObs()
	path := filepath.Join(t.TempDir(), "metrics.prom")
	var mu sync.Mutex
	var snapErrs []error
	obs.StartSnapshots(path, time.Millisecond, func(err error) {
		mu.Lock()
		snapErrs = append(snapErrs, err)
		mu.Unlock()
	})
	m := newWatched(t, obs)
	spawn(t, m, 64)
	time.Sleep(20 * time.Millisecond)
	if err := obs.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snapErrs) > 0 {
		t.Fatalf("snapshot errors: %v", snapErrs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := metrics.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("snapshot not parseable: %v\n%s", err, data)
	}
	events := m.SimStats().Events
	if got, ok := exp.Value("xmtfft_sim_events_total", nil); !ok || got != float64(events) || events == 0 {
		t.Errorf("snapshot events = %g (present=%v), want the machine's %d (> 0)", got, ok, events)
	}
}

// TestObsConcurrentScrape encodes the registry and reads /progress from
// another goroutine while a watched machine runs a spawn, the
// deployment shape of the /metrics server, under the race detector:
// every exposition parses and the published cycle never decreases.
func TestObsConcurrentScrape(t *testing.T) {
	obs := NewObs()
	obs.Epoch = 64
	m := newWatched(t, obs)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		var last float64
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				errc <- nil
				return
			default:
			}
			obs.Refresh()
			buf.Reset()
			if err := obs.Registry.WriteOpenMetrics(&buf); err != nil {
				errc <- err
				return
			}
			exp, err := metrics.Parse(&buf)
			if err != nil {
				errc <- fmt.Errorf("mid-run exposition invalid: %w", err)
				return
			}
			cycle, _ := exp.Value("xmtfft_sim_cycle", nil)
			if cycle < last {
				errc <- fmt.Errorf("xmtfft_sim_cycle went from %g to %g", last, cycle)
				return
			}
			if p := obs.Progress(); float64(p.Cycle) < cycle {
				errc <- fmt.Errorf("/progress cycle %d behind the scraped %g", p.Cycle, cycle)
				return
			}
			last = cycle
		}
	}()
	spawn(t, m, 4096)
	close(stop)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if p := obs.Progress(); p.Cycle != m.Now() {
		t.Errorf("final /progress cycle = %d, want %d", p.Cycle, m.Now())
	}
}

// TestObsFreshMachine: after a second Watch the engine series read the
// second machine's own tallies, and although every count drops, no
// event rate goes negative or wraps.
func TestObsFreshMachine(t *testing.T) {
	obs := NewObs()
	first := newWatched(t, obs)
	spawn(t, first, 4096)
	obs.Progress()
	const gap = 2 * time.Millisecond // at least one rate interval
	time.Sleep(gap)
	second := newWatched(t, obs)
	spawn(t, second, 64)
	p := obs.Progress()

	events := second.SimStats().Events
	if events == 0 || events >= first.SimStats().Events {
		t.Fatalf("second machine ran %d events, first %d: want fewer, not none", events, first.SimStats().Events)
	}
	if p.Events != events {
		t.Errorf("/progress events = %d, want the second machine's %d", p.Events, events)
	}
	// A rate over at least gap of counts that began at zero is at most
	// count/gap.
	bound := func(count uint64) float64 { return float64(count) / gap.Seconds() }
	if p.EventsPerSec < 0 || p.EventsPerSec > bound(events) {
		t.Errorf("events_per_sec = %g, want in [0, %g]", p.EventsPerSec, bound(events))
	}
	exp := parseRegistry(t, obs)
	if got, ok := exp.Value("xmtfft_sim_events_total", nil); !ok || got != float64(events) {
		t.Errorf("xmtfft_sim_events_total = %g (present=%v), want %d", got, ok, events)
	}
	if p.Shards != 2 {
		t.Errorf("/progress shards = %d, want 2", p.Shards)
	}
	for i := 0; i < p.Shards; i++ {
		lbl := map[string]string{"shard": strconv.Itoa(i)}
		n, _ := exp.Value("xmtfft_sim_shard_events_total", lbl)
		r, ok := exp.Value("xmtfft_sim_shard_events_per_second", lbl)
		if !ok || r < 0 || r > bound(uint64(n)) {
			t.Errorf("shard %d rate = %g (present=%v), want in [0, %g]", i, r, ok, bound(uint64(n)))
		}
	}
}

// TestObsProgressETA: the ETA appears once work units tick.
func TestObsProgressETA(t *testing.T) {
	obs := NewObs()
	p := obs.Progress()
	if p.ETASec != -1 {
		t.Errorf("ETA with no work = %g, want -1", p.ETASec)
	}
	obs.SetWork(4, 0)
	obs.AddWork(2)
	time.Sleep(2 * time.Millisecond)
	p = obs.Progress()
	if p.ETASec < 0 {
		t.Errorf("ETA after 2/4 units = %g, want >= 0", p.ETASec)
	}
	if p.WorkDone != 2 || p.WorkTotal != 4 {
		t.Errorf("work = %d/%d, want 2/4", p.WorkDone, p.WorkTotal)
	}
}

// TestObsProgressETAResumed: a sweep resumed at 3 of 5 units reports no
// ETA until this process finishes a unit, then extrapolates from that
// unit alone — one unit taking T leaves an ETA of T, not T/4.
func TestObsProgressETAResumed(t *testing.T) {
	obs := NewObs()
	begin := time.Now()
	obs.SetWork(5, 3)
	afterSet := time.Now()
	if p := obs.Progress(); p.ETASec != -1 || p.WorkDone != 3 || p.WorkTotal != 5 {
		t.Fatalf("before the first unit: ETA %g, work %d/%d; want -1, 3/5", p.ETASec, p.WorkDone, p.WorkTotal)
	}
	time.Sleep(40 * time.Millisecond)
	unit := time.Since(afterSet).Seconds() // at most the unit's time
	obs.AddWork(1)
	p := obs.Progress()
	upper := time.Since(begin).Seconds() // at least the unit's time
	if p.ETASec < unit || p.ETASec > upper {
		t.Fatalf("ETA after 1 of the 2 remaining units = %.4fs, want the unit's time, in [%.4f, %.4f]", p.ETASec, unit, upper)
	}
}

// TestStartProfiles: both profiles written, non-empty, and a second
// stop call is harmless.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = i * i
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}

	// Disabled profiles write nothing.
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestNewLogger: level parsing, rejection, and JSON output shape.
func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "warn", true)
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hidden")
	l.Warn("shown", "k", 7)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly the warn line, got %q", buf.String())
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if doc["msg"] != "shown" || doc["k"] != float64(7) {
		t.Errorf("unexpected log document: %v", doc)
	}

	buf.Reset()
	if l, err = NewLogger(&buf, "", false); err != nil {
		t.Fatal(err)
	}
	l.Debug("hidden at default info")
	l.Info("text line")
	if out := buf.String(); strings.Contains(out, "hidden") || !strings.Contains(out, "text line") {
		t.Errorf("default level wrong: %q", out)
	}

	if _, err := NewLogger(&buf, "loud", false); err == nil {
		t.Error("bad level accepted")
	}
}
