package sim

// Checkpoint state capture for the engine (internal/ckpt).
//
// The engine is only capturable at quiescent points: every queued event
// executed, every shard parked, every outbox drained. At such a point
// the entire engine state reduces to clocks and counters — the event
// queues are empty by definition, so "capturing the queues" is the
// precondition, not a serialization problem. The XMT machine reaches
// quiescence at every spawn boundary (Machine.Spawn runs its section to
// completion before returning), which is where checkpoints are taken;
// in-flight thread programs therefore never need to cross a checkpoint.
// See DESIGN.md §12.

import "fmt"

// PortState is the serializable state of a Port (Width is configuration,
// rebuilt from config.Config on restore, not state).
type PortState struct {
	NextFree uint64
	Used     uint64
	Busy     uint64
}

// State captures the port's occupancy state.
func (p *Port) State() PortState {
	return PortState{NextFree: p.nextFree, Used: p.used, Busy: p.Busy}
}

// RestoreState restores occupancy state captured by State.
func (p *Port) RestoreState(s PortState) {
	p.nextFree, p.used, p.Busy = s.NextFree, s.Used, s.Busy
}

// ShardState is the serializable state of one quiescent shard.
type ShardState struct {
	Now       uint64
	Processed uint64
}

// ParallelEngineState is the serializable state of a quiescent
// ParallelEngine.
type ParallelEngineState struct {
	Now      uint64
	Windows  uint64
	Barriers uint64
	Messages uint64
	Shards   []ShardState
}

// CaptureState captures the engine's state. Every shard must be parked
// with an empty queue and outbox — true between Run calls.
func (e *ParallelEngine) CaptureState() (ParallelEngineState, error) {
	if n := e.Pending(); n != 0 {
		return ParallelEngineState{}, fmt.Errorf("sim: capture with %d pending shard events (engine not at a quiescent point)", n)
	}
	st := ParallelEngineState{Now: e.now, Windows: e.Windows,
		Barriers: e.Barriers, Messages: e.Messages,
		Shards: make([]ShardState, len(e.shards))}
	for i := range e.shards {
		sh := &e.shards[i]
		if len(sh.out) != 0 {
			return ParallelEngineState{}, fmt.Errorf("sim: capture with %d undelivered messages on shard %d", len(sh.out), i)
		}
		st.Shards[i] = ShardState{Now: sh.now, Processed: sh.Processed}
	}
	return st, nil
}

// RestoreState restores a captured state onto a fresh (or quiescent)
// engine with the same shard count.
func (e *ParallelEngine) RestoreState(s ParallelEngineState) error {
	if n := e.Pending(); n != 0 {
		return fmt.Errorf("sim: restore with %d pending shard events (engine not at a quiescent point)", n)
	}
	if len(s.Shards) != len(e.shards) {
		return fmt.Errorf("sim: restore with %d shard states onto %d shards", len(s.Shards), len(e.shards))
	}
	e.now, e.Windows, e.Barriers, e.Messages = s.Now, s.Windows, s.Barriers, s.Messages
	for i := range e.shards {
		sh := &e.shards[i]
		sh.now = s.Shards[i].Now
		sh.Processed = s.Shards[i].Processed
		// Move the calendar-queue ring floor up to the restored clock so
		// future At calls land in the right buckets; the queue is empty,
		// so there is nothing to promote.
		sh.q.advanceBase(sh.now)
		sh.nextMin = noEvent
	}
	return nil
}
