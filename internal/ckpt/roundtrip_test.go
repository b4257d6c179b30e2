package ckpt

// The checkpoint contract: a run checkpointed at a quiescent point and
// resumed in a fresh process produces bit-identical results to an
// uninterrupted run: same FFT output, same per-phase cycle counts, same
// machine clock, same stats counters. Verified here with and without
// fault injection, and for checkpoints whose meta records an earlier
// writer's worker count; the CI kill-and-resume lane verifies the same
// contract across a real kill -9.

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fault"
	"xmtfft/internal/fft"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

const (
	rtN      = 8   // 8^3 cube: 3 rounds x (init + one radix-8 pass) = 6 phases
	rtTCUs   = 512 // 16 clusters on the scaled 4k configuration
	rtStopAt = 3   // checkpoint mid-run, between rounds
)

func rtConfig(t *testing.T) config.Config {
	t.Helper()
	cfg, err := config.FourK().Scaled(rtTCUs)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func faultyPlan(clusters int) fault.Plan {
	return fault.Plan{
		Seed: 7, NoCDrop: 0.02, NoCCorrupt: 0.01, DRAMBitErr: 0.001,
		KillClusters: fault.PickClusters(7, 2, clusters),
	}
}

func buildMachine(t *testing.T, cfg config.Config, plan fault.Plan, watchdog uint64) (*xmt.Machine, *core.Transform) {
	t.Helper()
	m, err := xmt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Active() {
		if err := m.EnableFaults(plan); err != nil {
			t.Fatal(err)
		}
	}
	if watchdog > 0 {
		m.SetWatchdog(watchdog)
	}
	tr, err := core.New3D(m, rtN, rtN, rtN)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Data {
		tr.Data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
	return m, tr
}

type runResult struct {
	data     []complex64
	run      stats.Run
	now      uint64
	counters stats.Counters
}

func result(m *xmt.Machine, tr *core.Transform, run stats.Run) runResult {
	return runResult{
		data:     append([]complex64(nil), tr.Data...),
		run:      run,
		now:      m.Now(),
		counters: m.Counters,
	}
}

// reference runs uninterrupted.
func reference(t *testing.T, plan fault.Plan, watchdog uint64) runResult {
	t.Helper()
	m, tr := buildMachine(t, rtConfig(t), plan, watchdog)
	run, err := tr.Run(fft.Forward)
	if err != nil {
		t.Fatal(err)
	}
	return result(m, tr, run)
}

var errStop = errors.New("stop for checkpoint")

// killAndResume runs until rtStopAt phases, checkpoints to disk with
// metaWorkers recorded as the worker count, abandons the first machine
// (the "killed process"), then reads the file back, restores it and
// finishes the run.
func killAndResume(t *testing.T, metaWorkers int, plan fault.Plan, watchdog uint64) runResult {
	t.Helper()
	cfg := rtConfig(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	m, tr := buildMachine(t, cfg, plan, watchdog)
	meta := Meta{
		Config:   cfg,
		DimCount: 3, Dims: [3]int{rtN, rtN, rtN}, Dir: int(fft.Forward),
		Plan: plan, WatchdogWindow: watchdog,
	}
	var err error
	if meta.TotalPhases, err = tr.NumPhases(); err != nil {
		t.Fatal(err)
	}
	_, err = tr.RunCheckpointed(fft.Forward, core.RunControl{
		AfterPhase: func(done int, partial *stats.Run) error {
			if done != rtStopAt {
				return nil
			}
			meta.PhasesDone = done
			c, cerr := Capture(m, tr, meta, tr.ResumeSnapshot(fft.Forward, done, *partial))
			if cerr != nil {
				return cerr
			}
			c.Meta.Workers = metaWorkers
			if _, cerr := Write(path, c); cerr != nil {
				return cerr
			}
			return errStop
		},
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("checkpointed run stopped with %v, want errStop", err)
	}

	c, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Meta.PhasesDone != rtStopAt || c.Meta.Cycle == 0 || c.Meta.Workers != metaWorkers {
		t.Fatalf("checkpoint meta: %+v", c.Meta)
	}
	m2, tr2, err := c.Restore(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Now() != c.Meta.Cycle {
		t.Fatalf("restored clock %d, checkpoint cycle %d", m2.Now(), c.Meta.Cycle)
	}
	run, err := tr2.RunCheckpointed(fft.Forward, core.RunControl{Resume: c.Workload})
	if err != nil {
		t.Fatal(err)
	}
	return result(m2, tr2, run)
}

func compareRuns(t *testing.T, label string, ref, got runResult) {
	t.Helper()
	if !reflect.DeepEqual(ref.data, got.data) {
		t.Errorf("%s: FFT output differs from uninterrupted reference", label)
	}
	if ref.now != got.now {
		t.Errorf("%s: machine clock %d, reference %d", label, got.now, ref.now)
	}
	if ref.run.TotalCycles() != got.run.TotalCycles() {
		t.Errorf("%s: total cycles %d, reference %d", label, got.run.TotalCycles(), ref.run.TotalCycles())
	}
	if !reflect.DeepEqual(ref.run.Phases, got.run.Phases) {
		t.Errorf("%s: per-phase records differ\nref: %+v\ngot: %+v", label, ref.run.Phases, got.run.Phases)
	}
	if !reflect.DeepEqual(ref.counters, got.counters) {
		t.Errorf("%s: stats counters differ\nref: %+v\ngot: %+v", label, ref.counters, got.counters)
	}
}

func TestResumeBitIdentical(t *testing.T) {
	cfg := rtConfig(t)
	for _, faulty := range []bool{false, true} {
		label := "clean"
		plan := fault.Plan{}
		var wd uint64
		if faulty {
			label = "faulty"
			plan = faultyPlan(cfg.Clusters)
			wd = 1 << 30 // armed but never firing: its state must survive the round trip
		}
		t.Run(label+"/workers=1", func(t *testing.T) {
			ref := reference(t, plan, wd)
			if want, _ := wantPhases(t); len(ref.run.Phases) != want {
				t.Fatalf("reference ran %d phases, NumPhases says %d", len(ref.run.Phases), want)
			}
			got := killAndResume(t, 1, plan, wd)
			compareRuns(t, label, ref, got)
		})
	}
}

// TestResumeAcrossWorkerCounts resumes a checkpoint whose meta records 4
// workers, as one written by a run at -sim-workers 4 did before the
// engine had a single driver: the count is ignored and the run finishes
// bit-identically to an uninterrupted one.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	cfg := rtConfig(t)
	plan := faultyPlan(cfg.Clusters)
	compareRuns(t, "meta workers 4", reference(t, plan, 0), killAndResume(t, 4, plan, 0))
}

// TestResumeRejectsEngineKindMismatch refuses checkpoints of the removed
// legacy serial engine — marked by Meta.Workers 0, and carrying no
// sharded engine state — with a *MismatchError that names the engine.
func TestResumeRejectsEngineKindMismatch(t *testing.T) {
	cfg := rtConfig(t)
	capture := func() (*Checkpoint, string) {
		path := filepath.Join(t.TempDir(), "kind.ckpt")
		m, tr := buildMachine(t, cfg, fault.Plan{}, 0)
		meta := Meta{Config: cfg, DimCount: 3, Dims: [3]int{rtN, rtN, rtN}, Dir: int(fft.Forward)}
		_, err := tr.RunCheckpointed(fft.Forward, core.RunControl{
			AfterPhase: func(done int, partial *stats.Run) error {
				if done != 1 {
					return nil
				}
				meta.PhasesDone = done
				c, cerr := Capture(m, tr, meta, tr.ResumeSnapshot(fft.Forward, done, *partial))
				if cerr != nil {
					return cerr
				}
				if _, cerr := Write(path, c); cerr != nil {
					return cerr
				}
				return errStop
			},
		})
		if !errors.Is(err, errStop) {
			t.Fatal(err)
		}
		c, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		return c, path
	}
	var me *MismatchError
	c, path := capture()
	if _, _, err := c.Restore(path); err != nil {
		t.Fatalf("checkpoint does not resume: %v", err)
	}
	legacy := *c
	legacy.Meta.Workers = 0
	_, _, err := legacy.Restore(path)
	if !errors.As(err, &me) {
		t.Fatalf("legacy-engine checkpoint: %v, want *MismatchError", err)
	}
	if !strings.Contains(err.Error(), "legacy serial engine") {
		t.Fatalf("error %q does not name the removed engine", err)
	}
	// A state without sharded engine state is refused too, whatever the
	// meta claims.
	stateless := *c
	ms := *c.Machine
	ms.Parallel = nil
	stateless.Machine = &ms
	if _, _, err := stateless.Restore(path); !errors.As(err, &me) {
		t.Fatalf("machine state without engine state: %v, want *MismatchError", err)
	}
}

// wantPhases computes the expected phase count for the test transform.
func wantPhases(t *testing.T) (int, error) {
	t.Helper()
	m, err := xmt.New(rtConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.New3D(m, rtN, rtN, rtN)
	if err != nil {
		t.Fatal(err)
	}
	return tr.NumPhases()
}

// TestResumeTimestampStamps resumes a checkpoint whose cache stamps are
// running timestamps, as the memory system wrote them before it kept
// each set's LRU order in one byte: captured mid-FFT on 4k at 64 TCUs
// at 16³, where sets evict dirty lines, with every stamp rewritten to a
// large per-module tick in the same order, it must finish
// bit-identically to an uninterrupted run.
func TestResumeTimestampStamps(t *testing.T) {
	const n, stopAt = 16, 4
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*xmt.Machine, *core.Transform) {
		m, err := xmt.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := core.New3D(m, n, n, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Data {
			tr.Data[i] = complex(float32(i%17)-8, float32(i%11)-5)
		}
		return m, tr
	}
	m, tr := build()
	run, err := tr.Run(fft.Forward)
	if err != nil {
		t.Fatal(err)
	}
	ref := result(m, tr, run)
	if ref.counters.CacheMisses == 0 || m.Memory().Writebacks() == 0 {
		t.Fatal("the reference run evicts no dirty line")
	}

	m, tr = build()
	meta := Meta{Config: cfg, DimCount: 3, Dims: [3]int{n, n, n}, Dir: int(fft.Forward)}
	var c *Checkpoint
	_, err = tr.RunCheckpointed(fft.Forward, core.RunControl{
		AfterPhase: func(done int, partial *stats.Run) error {
			if done != stopAt {
				return nil
			}
			meta.PhasesDone = done
			var cerr error
			if c, cerr = Capture(m, tr, meta, tr.ResumeSnapshot(fft.Forward, done, *partial)); cerr != nil {
				return cerr
			}
			return errStop
		},
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("checkpointed run stopped with %v, want errStop", err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range c.Machine.Memory.Modules {
		ms := &c.Machine.Memory.Modules[i]
		tick := uint64(1 + rng.Intn(1000))
		for k := 0; k < len(ms.Lines); k += 4 {
			// Stamps 1-4 become distinct ticks in the same order, each set
			// at its own offset, as a running tick leaves them.
			base := tick
			for w := k; w < k+4; w++ {
				if ms.Lines[w].Valid {
					ms.Lines[w].Used = base + 7*ms.Lines[w].Used
					tick = max(tick, ms.Lines[w].Used)
				}
			}
			tick += uint64(rng.Intn(50))
		}
		ms.UseTick = tick
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := Write(path, c); err != nil {
		t.Fatal(err)
	}
	if c, err = Read(path); err != nil {
		t.Fatal(err)
	}
	m2, tr2, err := c.Restore(path)
	if err != nil {
		t.Fatal(err)
	}
	run, err = tr2.RunCheckpointed(fft.Forward, core.RunControl{Resume: c.Workload})
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "timestamp stamps", ref, result(m2, tr2, run))
}
