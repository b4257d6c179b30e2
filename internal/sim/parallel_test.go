package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// staticPartition is a trivial Partition for engine-level tests.
type staticPartition struct {
	shards    int
	lookahead uint64
}

func (p staticPartition) Shards() int       { return p.shards }
func (p staticPartition) Lookahead() uint64 { return p.lookahead }

// ringModel is a synthetic sharded model: every event logs itself,
// schedules a local follow-up, and with some probability sends a message
// to the next shard, which the barrier turns into a remote event one
// lookahead later. Enough structure to exercise windows, barriers,
// same-cycle FIFO and far-future events.
type ringModel struct {
	eng       *ParallelEngine
	lookahead uint64
	log       [][3]uint64 // (shard, time, payload), appended per shard then gathered
	perShard  [][][3]uint64
	msgs      int
}

func newRingModel(shards int, lookahead uint64) *ringModel {
	m := &ringModel{lookahead: lookahead, perShard: make([][][3]uint64, shards)}
	m.eng = NewParallelEngine(staticPartition{shards, lookahead})
	for i := 0; i < shards; i++ {
		m.eng.SetHandler(i, (*ringShard)(m))
	}
	m.eng.SetBarrier(m.barrier)
	return m
}

// ringShard adapts ringModel to ShardHandler (the handler is shared; all
// mutable state is per-shard or coordinator-owned).
type ringShard ringModel

const (
	ringLocal uint8 = iota
	ringHop
)

// farFuture is a scheduling distance of hundreds of windows: a thread
// resume behind saturated DRAM channels lies up to about 25,000 cycles
// ahead on the sim-64k-dram machine.
const farFuture = 2098

func (r *ringShard) Event(sh *Shard, t uint64, op uint8, a, b uint64) {
	m := (*ringModel)(r)
	m.perShard[sh.ID] = append(m.perShard[sh.ID], [3]uint64{uint64(sh.ID), t, a})
	// Deterministic pseudo-randomness from the event's own coordinates.
	h := (t*2654435761 + a*40503 + uint64(sh.ID)*9176) % 100
	if b > 0 {
		if h < 40 {
			sh.At(t+1+h%7, op, a+1, b-1) // local chain, same or near cycle
		} else if h < 70 {
			sh.Send(ringHop, a, b-1, 0, 0) // cross-shard hop
		}
		if h%10 == 3 {
			// Far-future event, hundreds of windows ahead.
			sh.At(t+farFuture, ringLocal, a+100, b/2)
		}
	}
}

func (m *ringModel) barrier(msgs []Message) {
	m.msgs += len(msgs)
	for _, msg := range msgs {
		dst := (int(msg.Src) + 1) % len(m.perShard)
		m.eng.Shard(dst).At(msg.Time+m.lookahead, ringLocal, msg.A+1000, msg.B)
	}
}

// run seeds every shard and drains the engine with drive.
func (m *ringModel) run(drive func(*ParallelEngine) uint64) {
	for i := 0; i < m.eng.Shards(); i++ {
		m.eng.Shard(i).At(5, ringLocal, uint64(i), 12)
	}
	drive(m.eng)
	for _, s := range m.perShard {
		m.log = append(m.log, s...)
	}
}

// runFixedWindows is the conservative reference driver Run is checked
// against: every window starts at the minimum found by rescanning every
// shard queue, and every shard steps through every window.
func runFixedWindows(e *ParallelEngine) uint64 {
	for {
		start, ok := minNextScan(e)
		if !ok {
			return e.now
		}
		end := start + e.window
		e.Windows++
		for i := range e.shards {
			e.shards[i].runWindow(start, end)
		}
		e.now = end
		if msgs := e.collect(start); len(msgs) > 0 {
			e.Barriers++
			e.Messages += uint64(len(msgs))
			e.barrier(msgs)
		}
	}
}

// minNextScan finds the earliest pending event time by scanning every
// shard queue, independently of the cached per-shard minima Run reads.
func minNextScan(e *ParallelEngine) (uint64, bool) {
	best := noEvent
	ok := false
	for i := range e.shards {
		if t := e.shards[i].q.min(); t < best {
			best = t
			ok = true
		}
	}
	return best, ok
}

// TestParallelEngineWidenWindowsDifferential pins Run to the
// fixed-window reference driver: frontier jumps and idle-shard skips
// may only change the window accounting, never the executed events,
// the message stream or the final clock.
func TestParallelEngineWidenWindowsDifferential(t *testing.T) {
	ref := newRingModel(7, 6)
	ref.run(runFixedWindows)
	if len(ref.log) == 0 || ref.msgs == 0 {
		t.Fatalf("degenerate reference run: %d events, %d messages", len(ref.log), ref.msgs)
	}
	m := newRingModel(7, 6)
	m.run((*ParallelEngine).Run)
	if !reflect.DeepEqual(m.log, ref.log) {
		t.Fatal("event log diverged from the fixed-window driver")
	}
	if m.msgs != ref.msgs || m.eng.Now() != ref.eng.Now() {
		t.Fatalf("msgs=%d now=%d, want %d/%d", m.msgs, m.eng.Now(), ref.msgs, ref.eng.Now())
	}
	if m.eng.Windows > ref.eng.Windows {
		t.Fatalf("Run advanced more windows (%d) than the fixed driver (%d)",
			m.eng.Windows, ref.eng.Windows)
	}
}

// TestCollectMergeOrder holds the barrier merge to its specification:
// every shard's outbox, stably sorted by (time, shard), i.e. (time,
// shard, send order), with most shards silent as on a large machine.
// A message stamped outside its window must panic.
func TestCollectMergeOrder(t *testing.T) {
	const shards, window, start = 64, 16, 1000
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		e := NewParallelEngine(staticPartition{shards, window})
		var want []Message
		for i := 0; i < shards; i++ {
			if rng.Intn(4) != 0 {
				continue // silent shard
			}
			sh := e.Shard(i)
			sh.now = start
			for k := rng.Intn(6); k >= 0; k-- {
				sh.now += uint64(rng.Intn(4)) // nondecreasing, within the window
				if sh.now >= start+window {
					break
				}
				sh.Send(0, uint64(len(want)), 0, 0, 0)
				want = append(want, sh.out[len(sh.out)-1])
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].Time < want[b].Time })
		got := e.collect(start)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(append([]Message(nil), got...), want) {
			t.Fatalf("round %d: merge order\n got %v\nwant %v", round, got, want)
		}
		for i := 0; i < shards; i++ {
			if n := len(e.Shard(i).out); n != 0 {
				t.Fatalf("round %d: shard %d keeps %d messages after collect", round, i, n)
			}
		}
	}

	// One cycle past the window, from two senders or from one, and one
	// cycle before it.
	for _, stray := range []struct {
		senders []int
		at      uint64
	}{{[]int{3, 9}, start + window}, {[]int{9}, start + window}, {[]int{3}, start - 1}} {
		e := NewParallelEngine(staticPartition{shards, window})
		for _, i := range stray.senders {
			e.Shard(i).now = stray.at
			e.Shard(i).Send(0, 0, 0, 0, 0)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("collect accepted messages from shards %v stamped at %d, outside [%d, %d)",
						stray.senders, stray.at, start, start+window)
				}
			}()
			e.collect(start)
		}()
	}
}

func TestShardSameCycleFIFO(t *testing.T) {
	e := NewParallelEngine(staticPartition{1, 4})
	var got []uint64
	e.SetHandler(0, handlerFunc(func(sh *Shard, tm uint64, op uint8, a, b uint64) {
		got = append(got, a)
		if op == 1 {
			// Same-cycle append from inside the running event.
			sh.At(tm, 0, a+100, 0)
		}
	}))
	sh := e.Shard(0)
	for i := 0; i < 5; i++ {
		sh.At(9, 1, uint64(i), 0)
	}
	e.Run()
	want := []uint64{0, 1, 2, 3, 4, 100, 101, 102, 103, 104}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("same-cycle order = %v, want %v", got, want)
	}
}

// handlerFunc adapts a func to ShardHandler.
type handlerFunc func(sh *Shard, t uint64, op uint8, a, b uint64)

func (f handlerFunc) Event(sh *Shard, t uint64, op uint8, a, b uint64) { f(sh, t, op, a, b) }

func TestShardAtPastPanics(t *testing.T) {
	e := NewParallelEngine(staticPartition{1, 4})
	e.SetHandler(0, handlerFunc(func(sh *Shard, tm uint64, op uint8, a, b uint64) {
		defer func() {
			if recover() == nil {
				t.Error("At in the shard's past did not panic")
			}
		}()
		sh.At(tm-1, 0, 0, 0)
	}))
	e.Shard(0).At(10, 0, 0, 0)
	e.Run()
}

func TestParallelEngineFarFutureEvent(t *testing.T) {
	// An event thousands of windows ahead, alone in its queue: the window
	// must jump to it rather than spin or drop it.
	e := NewParallelEngine(staticPartition{2, 8})
	var fired []uint64
	for i := 0; i < 2; i++ {
		e.SetHandler(i, handlerFunc(func(sh *Shard, tm uint64, op uint8, a, b uint64) {
			fired = append(fired, tm)
		}))
	}
	e.Shard(0).At(3, 0, 0, 0)
	e.Shard(1).At(7*farFuture+11, 0, 0, 0)
	e.Run()
	want := []uint64{3, 7*farFuture + 11}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

func TestParallelEngineHookAndAdvanceTo(t *testing.T) {
	e := NewParallelEngine(staticPartition{2, 5})
	log := &advanceLog{}
	e.SetHook(log)
	for i := 0; i < 2; i++ {
		e.SetHandler(i, handlerFunc(func(sh *Shard, tm uint64, op uint8, a, b uint64) {}))
	}
	e.Shard(0).At(10, 0, 0, 0)
	e.Run()
	e.AdvanceTo(100)
	want := [][2]uint64{{0, 15}, {15, 100}}
	if !reflect.DeepEqual(log.intervals, want) {
		t.Fatalf("advances = %v, want %v", log.intervals, want)
	}
	for i := 0; i < 2; i++ {
		if e.Shard(i).Now() != 100 {
			t.Fatalf("shard %d clock = %d, want 100", i, e.Shard(i).Now())
		}
	}
}

func TestParallelEngineAdvanceToPendingPanics(t *testing.T) {
	e := NewParallelEngine(staticPartition{1, 5})
	e.SetHandler(0, handlerFunc(func(sh *Shard, tm uint64, op uint8, a, b uint64) {}))
	e.Shard(0).At(10, 0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo with pending events did not panic")
		}
	}()
	e.AdvanceTo(100)
}

func TestParallelEngineLookaheadValidation(t *testing.T) {
	for _, w := range []uint64{0, maxLookahead + 1, ^uint64(0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lookahead %d accepted", w)
				}
			}()
			NewParallelEngine(staticPartition{1, w})
		}()
	}
}

// TestShardRandomSchedules drives one shard with random schedules near
// and far ahead and checks every event fires exactly once in
// nondecreasing time order.
func TestShardRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewParallelEngine(staticPartition{1, 16})
	var fired []uint64
	scheduled := 0
	e.SetHandler(0, handlerFunc(func(sh *Shard, tm uint64, op uint8, a, b uint64) {
		fired = append(fired, tm)
		if b > 0 && rng.Intn(3) == 0 {
			d := uint64(rng.Intn(3 * farFuture))
			sh.At(tm+d, 0, 0, b-1)
			scheduled++
		}
	}))
	sh := e.Shard(0)
	for i := 0; i < 500; i++ {
		sh.At(uint64(rng.Intn(4*farFuture)), 0, 0, 6)
		scheduled++
	}
	e.Run()
	if len(fired) != scheduled {
		t.Fatalf("fired %d events, scheduled %d", len(fired), scheduled)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("time went backwards: %d after %d", fired[i], fired[i-1])
		}
	}
}

// BenchmarkShardSchedule measures the engine's schedule/dispatch hot
// path: Shard.At into the shard's heap and a Run that drains it.
func BenchmarkShardSchedule(b *testing.B) {
	e := NewParallelEngine(staticPartition{1, 16})
	var sum uint64
	e.SetHandler(0, handlerFunc(func(sh *Shard, t uint64, op uint8, a, bb uint64) {
		sum += a
	}))
	sh := e.Shard(0)
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i += batch {
		base := e.Now()
		for j := 0; j < batch; j++ {
			sh.At(base+uint64(j%16), 0, uint64(j), 0)
		}
		e.Run()
	}
	_ = sum
}

// BenchmarkCollect times the barrier merge on a window of the
// sim-64k-dram shape: 32 shards, W = 9, a third of them sending three
// messages each at random cycles of the window. One op is one collect,
// plus refilling the outboxes it drains.
func BenchmarkCollect(b *testing.B) {
	const shards, window, start = 32, 9, 1000
	e := NewParallelEngine(staticPartition{shards, window})
	rng := rand.New(rand.NewSource(1))
	outs := make([][]Message, shards)
	for i := 0; i < shards; i += 3 {
		sh := e.Shard(i)
		sh.now = start
		for k := 0; k < 3; k++ {
			sh.now += uint64(rng.Intn(3))
			sh.Send(0, uint64(k), 0, 0, 0)
		}
		outs[i] = append([]Message(nil), sh.out...)
		sh.out = sh.out[:0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s, out := range outs {
			if out != nil {
				e.shards[s].out = append(e.shards[s].out, out...)
			}
		}
		e.collect(start)
	}
}
