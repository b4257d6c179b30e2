package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xmtfft/internal/config"
)

// Small sizes throughout: these are the CI-speed paths of the
// reporting entry points; the raised production defaults live in the
// command flags.

func TestFig3DetailedWorkers(t *testing.T) {
	// The worker count changes wall-clock time only: the report is
	// identical at one and two workers.
	var ref string
	for _, workers := range []int{1, 2} {
		out := render(t, func(b *bytes.Buffer) error {
			return Fig3Detailed(b, config.FourK(), 256, 8, workers)
		})
		if !strings.Contains(out, "DETAILED-SIM ROOFLINE") {
			t.Errorf("workers=%d: report missing header:\n%s", workers, out)
		}
		if ref == "" {
			ref = out
		} else if out != ref {
			t.Errorf("workers=%d: report differs from workers=1:\n%s\nvs\n%s", workers, out, ref)
		}
	}
}

func TestAblationReportWorkers(t *testing.T) {
	// The worker count changes wall-clock time only: the table is
	// identical at one and two workers.
	render2 := func(workers int) string {
		return render(t, func(b *bytes.Buffer) error {
			_, err := AblationReport(b, 256, 8, AblationOptions{Workers: workers})
			return err
		})
	}
	out := render2(2)
	for _, want := range []string{"ABLATIONS", "radix 8, fine (paper)", "1.00x"} {
		if !strings.Contains(out, want) {
			t.Errorf("2-worker ablation report missing %q:\n%s", want, out)
		}
	}
	if ref := render2(1); out != ref {
		t.Errorf("ablation table differs between 1 and 2 workers:\n%s\nvs\n%s", ref, out)
	}
}

func TestRunSimBench(t *testing.T) {
	rec, err := RunSimBench(64, 4, []int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "xmt-sim-bench" || rec.NumCPU < 1 || rec.GoMaxProcs < 1 {
		t.Fatalf("bad record header: %+v", rec)
	}
	if len(rec.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rec.Results))
	}
	var shardedCycles, usefulRef uint64
	for _, r := range rec.Results {
		if r.Cycles == 0 || r.Events == 0 {
			t.Errorf("%s workers=%d: empty measurement %+v", r.Engine, r.Workers, r)
		}
		// Useful (model-level) events are a property of the workload, not
		// the worker count: every row must agree, or the throughput
		// comparison is not apples-to-apples.
		if r.UsefulEvents == 0 {
			t.Errorf("%s workers=%d: zero useful events", r.Engine, r.Workers)
		}
		if usefulRef == 0 {
			usefulRef = r.UsefulEvents
		} else if r.UsefulEvents != usefulRef {
			t.Errorf("%s workers=%d: useful events %d differ from %d — runs disagree on model work",
				r.Engine, r.Workers, r.UsefulEvents, usefulRef)
		}
		if r.ElapsedSec > 0 && r.UsefulEventsPerSec == 0 {
			t.Errorf("%s workers=%d: throughput not derived from useful events", r.Engine, r.Workers)
		}
		if r.Engine == "sharded" {
			if shardedCycles == 0 {
				shardedCycles = r.Cycles
			} else if r.Cycles != shardedCycles {
				t.Errorf("sharded cycles diverge: %d vs %d", r.Cycles, shardedCycles)
			}
			if r.Windows == 0 {
				t.Errorf("sharded run reports zero windows")
			}
		}
	}
	if _, ok := rec.SpeedupVsSerialDriver["workers=2"]; !ok {
		t.Errorf("missing speedup entry: %+v", rec.SpeedupVsSerialDriver)
	}
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back SimBenchRecord
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("record does not round-trip as JSON: %v", err)
	}
	if back.Config != rec.Config || len(back.Results) != len(rec.Results) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, rec)
	}
}
