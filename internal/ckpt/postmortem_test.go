package ckpt

import (
	"errors"
	"path/filepath"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fault"
	"xmtfft/internal/fft"
	"xmtfft/internal/sim"
	"xmtfft/internal/xmt"
)

// TestWatchdogPostMortem drives the full crash path: a 100% packet-loss
// NoC livelocks the run, the watchdog aborts it, the OnWatchdog hook
// writes a post-mortem checkpoint. The file must be readable for
// diagnosis but refused by Restore — the machine was mid-section, not
// at a quiescent point, so its state is not resumable.
func TestWatchdogPostMortem(t *testing.T) {
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := xmt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.Plan{Seed: 1, NoCDrop: 1.0}
	if err := m.EnableFaults(plan); err != nil {
		t.Fatal(err)
	}
	m.SetWatchdog(200_000)

	path := filepath.Join(t.TempDir(), "crash.postmortem.ckpt")
	meta := Meta{Config: cfg, DimCount: 1, Dims: [3]int{1, 1, 64},
		Dir: int(fft.Forward), Plan: plan, WatchdogWindow: 200_000}
	fired := 0
	m.OnWatchdog(func(we *sim.WatchdogError) {
		fired++
		if _, werr := WritePostMortem(path, meta, we.Error()); werr != nil {
			t.Errorf("WritePostMortem: %v", werr)
		}
	})

	tr, err := core.New1D(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Data {
		tr.Data[i] = complex(float32(i), 0)
	}
	if _, err := tr.Run(fft.Forward); err == nil {
		t.Fatal("run under total packet loss succeeded")
	} else if _, ok := err.(*sim.WatchdogError); !ok {
		t.Fatalf("run error is %T, want *sim.WatchdogError: %v", err, err)
	}
	if fired != 1 {
		t.Fatalf("OnWatchdog fired %d times, want 1", fired)
	}

	c, err := Read(path)
	if err != nil {
		t.Fatalf("post-mortem checkpoint unreadable: %v", err)
	}
	if !c.Meta.PostMortem || c.Meta.Note == "" {
		t.Fatalf("post-mortem meta: %+v", c.Meta)
	}
	if _, _, err := c.Restore(path); !errors.Is(err, ErrPostMortem) {
		t.Fatalf("Restore(post-mortem) = %v, want ErrPostMortem", err)
	}
}
