package sim

import (
	"strings"
	"testing"
)

// TestEngineStateRoundTrip checks that clocks and counters survive a
// capture/restore cycle and that the restored engine keeps scheduling
// from the captured instant.
func TestEngineStateRoundTrip(t *testing.T) {
	e := newFuncEngine(4)
	for i := uint64(1); i <= 5; i++ {
		e.at(i*10, func() {})
	}
	e.Run()

	st, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Now != 54 || st.Windows != 5 || len(st.Shards) != 1 || st.Shards[0].Processed != 5 {
		t.Fatalf("captured state %+v", st)
	}

	fresh := newFuncEngine(4)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if fresh.Now() != 54 || fresh.Shard(0).Now() != 54 {
		t.Fatalf("restored clock %d (shard %d), want 54", fresh.Now(), fresh.Shard(0).Now())
	}
	var ran uint64
	fresh.at(61, func() { ran = fresh.now() })
	if end := fresh.Run(); end != 65 || ran != 61 {
		t.Fatalf("restored engine ran to %d (event at %d), want 65 (61)", end, ran)
	}
	if fresh.Shard(0).Processed != 6 || fresh.Windows != 6 {
		t.Fatalf("restored Processed = %d, Windows = %d, want 6/6", fresh.Shard(0).Processed, fresh.Windows)
	}
}

// TestCaptureRefusesPendingEvents pins the quiescence precondition:
// pending events and undelivered messages are not serialized, so
// capture and restore must both refuse a non-drained engine.
func TestCaptureRefusesPendingEvents(t *testing.T) {
	e := newFuncEngine(4)
	e.at(1, func() {})
	if _, err := e.CaptureState(); err == nil {
		t.Fatal("capture with a pending event succeeded")
	} else if !strings.Contains(err.Error(), "quiescent") {
		t.Fatalf("capture error %q does not name the quiescence precondition", err)
	}
	if err := e.RestoreState(ParallelEngineState{Now: 9, Shards: make([]ShardState, 1)}); err == nil {
		t.Fatal("restore onto an engine with a pending event succeeded")
	}
}

// countHandler is a minimal ShardHandler for state tests.
type countHandler struct{ n *int }

func (h countHandler) Event(sh *Shard, t uint64, op uint8, a, b uint64) { *h.n++ }

// TestParallelCaptureRefusesPendingEvents does the same for the sharded
// engine: any shard with queued work blocks capture, and a captured
// state only restores onto an engine with the same shard count.
func TestParallelCaptureRefusesPendingEvents(t *testing.T) {
	build := func(shards int) *ParallelEngine {
		e := NewParallelEngine(staticPartition{shards, 8}, 2)
		n := 0
		for i := 0; i < shards; i++ {
			e.SetHandler(i, countHandler{&n})
		}
		return e
	}
	e := build(4)
	e.Shard(2).At(5, 0, 0, 0)
	if _, err := e.CaptureState(); err == nil {
		t.Fatal("capture with a pending shard event succeeded")
	}
	e.Run()
	st, err := e.CaptureState()
	if err != nil {
		t.Fatalf("capture after drain: %v", err)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("captured %d shards, want 4", len(st.Shards))
	}

	if err := build(4).RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if err := build(3).RestoreState(st); err == nil {
		t.Fatal("restore of a 4-shard state onto a 3-shard engine succeeded")
	}
}
