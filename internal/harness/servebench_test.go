package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunServeBench runs a deliberately small bench end to end: server
// up, three load levels, record populated, JSON round-trip.
func TestRunServeBench(t *testing.T) {
	rec, err := RunServeBench(ServeBenchOptions{
		N:           64,
		Requests:    24,
		Concurrency: []int{1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "xmt-serve-bench" {
		t.Errorf("kind = %q", rec.Kind)
	}
	if rec.N != 64 || rec.Dtype != "complex64" || rec.Requests != 24 {
		t.Errorf("config echo wrong: n=%d dtype=%q requests=%d", rec.N, rec.Dtype, rec.Requests)
	}
	if rec.GoMaxProcs < 1 || rec.NumCPU < 1 || rec.GOOS == "" || rec.GOARCH == "" {
		t.Errorf("runtime metadata missing: %+v", rec)
	}
	if len(rec.Levels) != 3 {
		t.Fatalf("%d levels, want 3", len(rec.Levels))
	}
	for i, lvl := range rec.Levels {
		if lvl.Errors != 0 {
			t.Errorf("level %d: %d errors", i, lvl.Errors)
		}
		if lvl.Requests != 24 {
			t.Errorf("level %d: %d requests", i, lvl.Requests)
		}
		if lvl.P50Ms <= 0 || lvl.P99Ms < lvl.P50Ms {
			t.Errorf("level %d: quantiles p50=%g p99=%g", i, lvl.P50Ms, lvl.P99Ms)
		}
		if lvl.Throughput <= 0 {
			t.Errorf("level %d: throughput %g", i, lvl.Throughput)
		}
	}
	want := []int{1, 2, 4}
	for i, lvl := range rec.Levels {
		if lvl.Concurrency != want[i] {
			t.Errorf("level %d: concurrency %d, want %d", i, lvl.Concurrency, want[i])
		}
	}

	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back ServeBenchRecord
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("record does not round-trip: %v", err)
	}
	if back.Kind != rec.Kind || len(back.Levels) != len(rec.Levels) {
		t.Errorf("round-trip lost fields: %+v", back)
	}
}
