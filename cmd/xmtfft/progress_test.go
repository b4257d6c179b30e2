package main

import (
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/harness"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

// TestDetailedRunReportsPhases: a detailed 16³ run reports k of N
// phases done after its k-th phase, with an ETA once a phase is done,
// and a resumed run starts at the phases its checkpoint had done.
func TestDetailedRunReportsPhases(t *testing.T) {
	cfg, err := config.FourK().Scaled(256)
	if err != nil {
		t.Fatal(err)
	}
	m, err := xmt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.New3D(m, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	total, err := tr.NumPhases()
	if err != nil {
		t.Fatal(err)
	}
	obs := harness.NewObs()
	defer obs.Close()
	var seen []harness.Progress
	after := countPhases(obs, total, 0, func(done int, _ *stats.Run) error {
		seen = append(seen, obs.Progress())
		return nil
	})
	if p := obs.Progress(); p.WorkDone != 0 || p.WorkTotal != total {
		t.Fatalf("before the run: %d/%d phases, want 0/%d", p.WorkDone, p.WorkTotal, total)
	}
	if _, err := tr.RunCheckpointed(fft.Forward, core.RunControl{AfterPhase: after}); err != nil {
		t.Fatal(err)
	}
	if total < 3 || len(seen) != total {
		t.Fatalf("saw %d phases of %d", len(seen), total)
	}
	for k, p := range seen {
		if p.WorkDone != k+1 || p.WorkTotal != total {
			t.Fatalf("after phase %d: %d/%d phases, want %d/%d", k+1, p.WorkDone, p.WorkTotal, k+1, total)
		}
		if k+1 < total && p.ETASec < 0 {
			t.Fatalf("after phase %d of %d: no ETA (%g)", k+1, total, p.ETASec)
		}
	}

	countPhases(obs, total, 4, nil)
	if p := obs.Progress(); p.WorkDone != 4 || p.WorkTotal != total {
		t.Fatalf("resumed: %d/%d phases, want 4/%d", p.WorkDone, p.WorkTotal, total)
	}
}
