package ckpt

// The checkpoint contract: a run checkpointed at a quiescent point and
// resumed — in a fresh process, at any worker count of the same engine
// kind — produces bit-identical results to an uninterrupted run: same
// FFT output, same per-phase cycle counts, same machine clock, same
// stats counters. Verified here across engine kinds and with active
// fault injection; the CI kill-and-resume lane verifies the same
// contract across a real kill -9.

import (
	"errors"
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

func buildMachine(t *testing.T, cfg config.Config, workers int, plan fault.Plan, watchdog uint64) (*xmt.Machine, *core.Transform) {
	t.Helper()
	m, err := xmt.NewParallel(cfg, workers)
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
func reference(t *testing.T, workers int, plan fault.Plan, watchdog uint64) runResult {
	t.Helper()
	m, tr := buildMachine(t, rtConfig(t), workers, plan, watchdog)
	run, err := tr.Run(fft.Forward)
	if err != nil {
		t.Fatal(err)
	}
	return result(m, tr, run)
}

var errStop = errors.New("stop for checkpoint")

// killAndResume runs until rtStopAt phases, checkpoints to disk,
// abandons the first machine (the "killed process"), then reads the
// file back, restores at resumeWorkers and finishes the run.
func killAndResume(t *testing.T, captureWorkers, resumeWorkers int, plan fault.Plan, watchdog uint64) runResult {
	t.Helper()
	cfg := rtConfig(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	m, tr := buildMachine(t, cfg, captureWorkers, plan, watchdog)
	meta := Meta{
		Config: cfg, Workers: captureWorkers,
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
	if c.Meta.PhasesDone != rtStopAt || c.Meta.Cycle == 0 {
		t.Fatalf("checkpoint meta: %+v", c.Meta)
	}
	m2, tr2, err := c.Restore(path, resumeWorkers)
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
	for _, workers := range []int{1, 4} {
		for _, faulty := range []bool{false, true} {
			label := "clean"
			plan := fault.Plan{}
			var wd uint64
			if faulty {
				label = "faulty"
				plan = faultyPlan(cfg.Clusters)
				wd = 1 << 30 // armed but never firing: its state must survive the round trip
			}
			t.Run(label+"/workers="+itoa(workers), func(t *testing.T) {
				ref := reference(t, workers, plan, wd)
				if want, _ := wantPhases(t); len(ref.run.Phases) != want {
					t.Fatalf("reference ran %d phases, NumPhases says %d", len(ref.run.Phases), want)
				}
				got := killAndResume(t, workers, workers, plan, wd)
				compareRuns(t, label, ref, got)
			})
		}
	}
}

// TestResumeAcrossWorkerCounts checks the worker-invariance contract:
// a checkpoint restores at any worker count >= 1 with identical
// results, because shard state is independent of how shards are mapped
// to OS threads.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	cfg := rtConfig(t)
	plan := faultyPlan(cfg.Clusters)
	ref := reference(t, 4, plan, 0)
	compareRuns(t, "capture@1 resume@4", ref, killAndResume(t, 1, 4, plan, 0))
	compareRuns(t, "capture@4 resume@1", ref, killAndResume(t, 4, 1, plan, 0))
}

// TestResumeRejectsEngineKindMismatch refuses checkpoints of the removed
// legacy serial engine — marked by Meta.Workers 0, and carrying no
// sharded engine state — with a *MismatchError that names the engine.
func TestResumeRejectsEngineKindMismatch(t *testing.T) {
	cfg := rtConfig(t)
	capture := func(workers int) (*Checkpoint, string) {
		path := filepath.Join(t.TempDir(), "kind.ckpt")
		m, tr := buildMachine(t, cfg, workers, fault.Plan{}, 0)
		meta := Meta{Config: cfg, Workers: workers, DimCount: 3, Dims: [3]int{rtN, rtN, rtN}, Dir: int(fft.Forward)}
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
	c, path := capture(2)
	if _, _, err := c.Restore(path, 1); err != nil {
		t.Fatalf("checkpoint captured at 2 workers does not resume at 1: %v", err)
	}
	legacy := *c
	legacy.Meta.Workers = 0
	for _, workers := range []int{1, 2} {
		_, _, err := legacy.Restore(path, workers)
		if !errors.As(err, &me) {
			t.Fatalf("legacy-engine checkpoint at %d workers: %v, want *MismatchError", workers, err)
		}
		if !strings.Contains(err.Error(), "legacy serial engine") {
			t.Fatalf("error %q does not name the removed engine", err)
		}
	}
	// A state without sharded engine state is refused too, whatever the
	// meta claims.
	stateless := *c
	ms := *c.Machine
	ms.Parallel = nil
	stateless.Machine = &ms
	if _, _, err := stateless.Restore(path, 1); !errors.As(err, &me) {
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

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
