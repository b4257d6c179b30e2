package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Small sizes throughout: these are the CI-speed paths of the
// reporting entry points; the raised production defaults live in the
// command flags.

func TestRunSimBench(t *testing.T) {
	rec, err := RunSimBench(64, 4, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "xmt-sim-bench" || rec.NumCPU < 1 || rec.GoMaxProcs < 1 {
		t.Fatalf("bad record header: %+v", rec)
	}
	if len(rec.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(rec.Results))
	}
	r := rec.Results[0]
	if r.Engine != "sharded" || r.Cycles == 0 || r.Events == 0 || r.Windows == 0 {
		t.Errorf("empty measurement %+v", r)
	}
	// Useful (model-level) events are a property of the workload, not of
	// how the engine schedules it.
	if r.UsefulEvents == 0 {
		t.Error("zero useful events")
	}
	if r.ElapsedSec > 0 && r.UsefulEventsPerSec == 0 {
		t.Error("throughput not derived from useful events")
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

	// The deprecated worker list takes only 1s and adds no rows.
	if one, err := RunSimBench(64, 4, []int{1}, 1); err != nil || len(one.Results) != 1 {
		t.Fatalf("RunSimBench with workers [1]: %v, %+v", err, one)
	}
	if _, err := RunSimBench(64, 4, []int{1, 2}, 1); err == nil {
		t.Fatal("worker count 2 accepted")
	}
}
