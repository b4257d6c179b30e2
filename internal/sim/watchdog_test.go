package sim

import (
	"strings"
	"testing"
)

// TestEngineWatchdogAbortsLivelock runs a livelock on the inline driver
// — one shard whose every event reschedules itself a fixed delay later,
// forever, without marking progress — and requires a typed abort with
// the queue-state dump.
func TestEngineWatchdogAbortsLivelock(t *testing.T) {
	e := NewParallelEngine(wdPartition{n: 1}, 1)
	wd := NewWatchdog(1000)
	e.SetWatchdog(wd)
	wd.Progress(0)
	e.SetHandler(0, &wdShardHandler{respawn: 64})
	e.SetBarrier(func([]Message) {})
	e.Shard(0).At(0, 0, 0, 0)

	var got *WatchdogError
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				we, ok := rec.(*WatchdogError)
				if !ok {
					t.Fatalf("panic was not a WatchdogError: %v", rec)
				}
				got = we
			}
		}()
		e.Run()
	}()
	if got == nil {
		t.Fatal("watchdog never fired on a livelocked engine")
	}
	if got.Now <= got.LastProgress+got.Window {
		t.Fatalf("fired too early: now %d, last %d, window %d", got.Now, got.LastProgress, got.Window)
	}
	if !strings.Contains(got.Dump, "shard 0") || !strings.Contains(got.Dump, "pending=") {
		t.Fatalf("dump missing queue state: %q", got.Dump)
	}
	if !strings.Contains(got.Error(), "watchdog") {
		t.Fatalf("error text missing watchdog: %q", got.Error())
	}
}

// TestEngineWatchdogQuietWithProgress marks progress from the running
// events themselves — allowed on the inline driver, where shard events
// run on the coordinator's goroutine.
func TestEngineWatchdogQuietWithProgress(t *testing.T) {
	e := NewParallelEngine(wdPartition{n: 1}, 1)
	wd := NewWatchdog(300)
	e.SetWatchdog(wd)
	e.SetHandler(0, &wdShardHandler{progress: wd.Progress})
	e.SetBarrier(func([]Message) {})
	// Events spaced just inside the window, each marking progress.
	for i := uint64(1); i <= 10; i++ {
		e.Shard(0).At(i*250, 0, 0, 0)
	}
	if end := e.Run(); end != 2508 {
		t.Fatalf("run ended at %d, want 2508", end)
	}
}

// wdShardHandler implements ShardHandler for parallel watchdog tests.
type wdShardHandler struct {
	progress func(t uint64)
	respawn  uint64 // reschedule period (0 = don't)
}

func (h *wdShardHandler) Event(sh *Shard, t uint64, op uint8, a, b uint64) {
	if h.progress != nil {
		h.progress(t)
	}
	if h.respawn > 0 {
		sh.At(t+h.respawn, op, a, b)
	}
}

type wdPartition struct{ n int }

func (p wdPartition) Shards() int       { return p.n }
func (p wdPartition) Lookahead() uint64 { return 8 }

func TestParallelEngineWatchdogAbortsLivelock(t *testing.T) {
	for _, workers := range []int{1, 3} {
		e := NewParallelEngine(wdPartition{n: 3}, workers)
		wd := NewWatchdog(500)
		e.SetWatchdog(wd)
		h := &wdShardHandler{respawn: 32}
		for i := 0; i < 3; i++ {
			e.SetHandler(i, h)
			e.Shard(i).At(0, 0, 0, 0)
		}
		e.SetBarrier(func([]Message) {})

		var got *WatchdogError
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					we, ok := rec.(*WatchdogError)
					if !ok {
						t.Fatalf("workers=%d: panic was not a WatchdogError: %v", workers, rec)
					}
					got = we
				}
			}()
			e.Run()
		}()
		if got == nil {
			t.Fatalf("workers=%d: watchdog never fired", workers)
		}
		if !strings.Contains(got.Dump, "shard 0") || !strings.Contains(got.Dump, "shard 2") {
			t.Fatalf("workers=%d: dump missing per-shard state: %q", workers, got.Dump)
		}
		if !strings.Contains(got.Dump, "next=") {
			t.Fatalf("workers=%d: dump missing earliest pending times: %q", workers, got.Dump)
		}
	}
}

func TestParallelEngineWatchdogQuietWithProgress(t *testing.T) {
	e := NewParallelEngine(wdPartition{n: 2}, 2)
	wd := NewWatchdog(1000)
	e.SetWatchdog(wd)
	// Progress is marked from the barrier (coordinator side), as the
	// machine model does; shards only execute.
	h := &wdShardHandler{}
	var last uint64
	for i := 0; i < 2; i++ {
		e.SetHandler(i, h)
		for k := uint64(1); k <= 8; k++ {
			e.Shard(i).At(k*400, 0, 0, 0)
			if k*400 > last {
				last = k * 400
			}
		}
	}
	e.SetBarrier(func([]Message) {})
	// No messages flow, so mark progress via the hook at window ends.
	e.SetHook(hookFunc(func(prev, now uint64) { wd.Progress(now) }))
	wd.Progress(0)
	if end := e.Run(); end < last {
		t.Fatalf("run ended at %d before last event %d", end, last)
	}
}

type hookFunc func(prev, now uint64)

func (f hookFunc) Advance(prev, now uint64) { f(prev, now) }
