package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xmtfft/internal/metrics"
)

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
	obs.Telemetry.Events.Add(12345)
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
	if v, ok := exp.Value("xmtfft_sim_events_total", nil); !ok || v != 12345 {
		t.Errorf("snapshot events = %g (present=%v), want 12345", v, ok)
	}
}

// TestObsProgressETA: the ETA appears once work units tick.
func TestObsProgressETA(t *testing.T) {
	obs := NewObs()
	p := obs.Progress()
	if p.ETASec != -1 {
		t.Errorf("ETA with no work = %g, want -1", p.ETASec)
	}
	obs.SetWork(4)
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

// TestRunObsBench: the overhead record is self-consistent and upholds
// the zero-alloc contract.
func TestRunObsBench(t *testing.T) {
	rec, err := RunObsBench(64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "xmt-obs-bench" || len(rec.Results) != 3 {
		t.Fatalf("unexpected record shape: %+v", rec)
	}
	for i, mode := range []string{"off", "telemetry", "live"} {
		r := rec.Results[i]
		if r.Mode != mode || r.Cycles == 0 || r.Events == 0 {
			t.Errorf("result %d = %+v, want mode %q with nonzero work", i, r, mode)
		}
		if r.Cycles != rec.Results[0].Cycles {
			t.Errorf("mode %q changed simulated cycles", mode)
		}
		if r.ElapsedMinSec != r.ElapsedSec || !(r.ElapsedMinSec <= r.ElapsedQ1Sec && r.ElapsedQ1Sec <= r.ElapsedMedianSec &&
			r.ElapsedMedianSec <= r.ElapsedQ3Sec && r.ElapsedQ3Sec <= r.ElapsedMaxSec) {
			t.Errorf("mode %q: best %g, spread min %g q1 %g median %g q3 %g max %g out of order", mode, r.ElapsedSec,
				r.ElapsedMinSec, r.ElapsedQ1Sec, r.ElapsedMedianSec, r.ElapsedQ3Sec, r.ElapsedMaxSec)
		}
	}
	// One rep measures no spread, so no overhead counts as resolved.
	if !strings.Contains(rec.Note, "overhead unresolved") {
		t.Errorf("one-rep record does not call its overheads unresolved: %q", rec.Note)
	}
	hp := rec.HotPath
	if hp.CounterAddAllocs != 0 || hp.GaugeSetAllocs != 0 || hp.HistObserveAllocs != 0 {
		t.Errorf("hot path allocates: %+v", hp)
	}
	if strings.Contains(rec.Note, "WARNING") {
		t.Errorf("record carries a contract warning: %s", rec.Note)
	}
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back ObsBenchRecord
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("record does not round-trip: %v", err)
	}
}

// TestObsBenchSpreadAndResolution pins the record's statistics on seven
// reps (nearest-rank quartiles: the 2nd, 4th and 6th smallest) and the
// resolution rule: an overhead counts only when the mode's median lies
// outside the off mode's interquartile range.
func TestObsBenchSpreadAndResolution(t *testing.T) {
	off := ObsBenchResult{Events: 100}
	off.setSpread([]float64{7, 1, 6, 2, 5, 3, 4})
	if off.ElapsedSec != 1 || off.ElapsedMinSec != 1 || off.ElapsedQ1Sec != 2 || off.ElapsedMedianSec != 4 ||
		off.ElapsedQ3Sec != 6 || off.ElapsedMaxSec != 7 || off.EventsPerSec != 100 {
		t.Fatalf("spread of 1..7 = %+v", off)
	}
	for _, c := range []struct {
		times    []float64
		resolved bool
	}{
		{[]float64{6, 6, 6}, false},    // median on the upper quartile
		{[]float64{2, 2, 2}, false},    // median on the lower quartile
		{[]float64{1, 6.5, 9}, true},   // above the upper quartile
		{[]float64{1, 1.5, 9}, true},   // below the lower quartile
		{[]float64{1, 4.5, 99}, false}, // a wild max does not resolve it
	} {
		r := ObsBenchResult{}
		r.setSpread(c.times)
		if got := r.resolvedAgainst(&off); got != c.resolved {
			t.Errorf("times %v (median %g) against IQR [%g, %g]: resolved = %v, want %v",
				c.times, r.ElapsedMedianSec, off.ElapsedQ1Sec, off.ElapsedQ3Sec, got, c.resolved)
		}
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
