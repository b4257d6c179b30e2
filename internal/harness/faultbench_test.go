package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRunFaultBench(t *testing.T) {
	rec, err := RunFaultBench(64, 8, 1, []float64{0.02})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "xmt-fault-bench" {
		t.Errorf("kind = %q", rec.Kind)
	}
	if len(rec.Results) != 2 {
		t.Fatalf("results = %d, want baseline + 1 rate", len(rec.Results))
	}
	base, faulty := rec.Results[0], rec.Results[1]
	if base.Rate != 0 {
		t.Fatalf("first result rate = %g, want the implicit 0 baseline", base.Rate)
	}
	if base.NoCDrops != 0 || base.ECCCorrected != 0 {
		t.Errorf("baseline saw faults: %+v", base)
	}
	if faulty.Cycles <= base.Cycles {
		t.Errorf("faulty run %d cycles, not above baseline %d", faulty.Cycles, base.Cycles)
	}
	if faulty.CyclesOverhead <= 0 {
		t.Errorf("cycles overhead = %g, want > 0", faulty.CyclesOverhead)
	}
	if faulty.NoCRetransmits == 0 || faulty.ECCCorrected == 0 {
		t.Errorf("recovery invisible in the record: %+v", faulty)
	}

	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var round FaultBenchRecord
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if len(round.Results) != len(rec.Results) {
		t.Error("record did not round-trip")
	}
}

func TestRunFaultBenchRejectsBadRate(t *testing.T) {
	if _, err := RunFaultBench(64, 8, 1, []float64{1.5}); err == nil {
		t.Fatal("rate > 1 accepted")
	}
}
