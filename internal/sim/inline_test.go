package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// The engine's scheduling contract on one shard, which is how a
// one-cluster machine runs. funcEngine lets these tests schedule
// closures — event a runs fns[a] — so each reads like the contract it
// pins.
type funcEngine struct {
	*ParallelEngine
	fns []func()
}

func newFuncEngine(lookahead uint64) *funcEngine {
	f := &funcEngine{ParallelEngine: NewParallelEngine(staticPartition{1, lookahead})}
	f.SetHandler(0, f)
	f.SetBarrier(func([]Message) {})
	return f
}

// at schedules fn at cycle t on the shard.
func (f *funcEngine) at(t uint64, fn func()) {
	f.fns = append(f.fns, fn)
	f.Shard(0).At(t, 0, uint64(len(f.fns)-1), 0)
}

// now is the executing event's cycle (the shard clock inside a window).
func (f *funcEngine) now() uint64 { return f.Shard(0).Now() }

// Event implements ShardHandler.
func (f *funcEngine) Event(sh *Shard, t uint64, op uint8, a, b uint64) { f.fns[a]() }

func TestEngineEmptyRun(t *testing.T) {
	e := newFuncEngine(4)
	if got := e.Run(); got != 0 {
		t.Fatalf("empty run ended at cycle %d, want 0", got)
	}
	if e.Pending() != 0 || e.Windows != 0 {
		t.Fatalf("pending = %d, windows = %d, want 0/0", e.Pending(), e.Windows)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := newFuncEngine(4)
	var order []int
	var times []uint64
	add := func(t uint64, id int) {
		e.at(t, func() { order = append(order, id); times = append(times, e.now()) })
	}
	add(10, 2)
	add(5, 1)
	add(10, 3) // same cycle: FIFO
	add(20, 4)
	end := e.Run()
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if want := []uint64{5, 10, 10, 20}; !reflect.DeepEqual(times, want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	// The clock ends at the close of the last window.
	if end != 20+e.Window() {
		t.Fatalf("final cycle = %d, want %d", end, 20+e.Window())
	}
}

type advanceLog struct {
	intervals [][2]uint64
}

func (l *advanceLog) Advance(prev, now uint64) {
	l.intervals = append(l.intervals, [2]uint64{prev, now})
}

func TestEngineHookSeesEveryClockAdvance(t *testing.T) {
	e := newFuncEngine(3)
	log := &advanceLog{}
	e.SetHook(log)
	e.at(5, func() {})
	e.at(5, func() {}) // same window: no second advance
	e.at(9, func() {})
	e.Run()
	// AdvanceTo past the (empty) queue is also a clock advance.
	e.AdvanceTo(20)
	want := [][2]uint64{{0, 8}, {8, 12}, {12, 20}}
	if !reflect.DeepEqual(log.intervals, want) {
		t.Fatalf("advances = %v, want %v", log.intervals, want)
	}
	// Removing the hook stops observation.
	e.SetHook(nil)
	e.at(23, func() {})
	e.Run()
	if len(log.intervals) != len(want) {
		t.Fatalf("hook fired after removal: %v", log.intervals)
	}
}

// hookOrderLog records hook and event firings in one sequence.
type hookOrderLog struct {
	entries []string
}

func (h *hookOrderLog) Advance(prev, now uint64) {
	h.entries = append(h.entries, "advance")
}

// The hook fires once per window, after all of that window's events and
// before any event of the next window.
func TestEngineHookOrderingRelativeToEvents(t *testing.T) {
	e := newFuncEngine(2)
	h := &hookOrderLog{}
	e.SetHook(h)
	ev := func() { h.entries = append(h.entries, "event") }
	e.at(5, ev)
	e.at(5, ev)
	e.at(8, ev)
	e.Run()
	want := []string{"event", "event", "advance", "event", "advance"}
	if !reflect.DeepEqual(h.entries, want) {
		t.Fatalf("entries = %v, want %v", h.entries, want)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := newFuncEngine(4)
	var fired []uint64
	e.at(1, func() {
		fired = append(fired, e.now())
		e.at(e.now()+2, func() {
			fired = append(fired, e.now())
			e.at(e.now(), func() { fired = append(fired, e.now()) })
		})
	})
	e.Run()
	if want := []uint64{1, 3, 3}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// Scheduling from the coordinator (the barrier function) before the
// barrier's cycle would violate the lookahead contract and panics.
func TestEngineAtPastPanics(t *testing.T) {
	e := NewParallelEngine(staticPartition{1, 4})
	e.SetHandler(0, handlerFunc(func(sh *Shard, tm uint64, op uint8, a, b uint64) {
		if op == 0 {
			sh.Send(0, 0, 0, 0, 0)
		}
	}))
	panicked := false
	e.SetBarrier(func(msgs []Message) {
		defer func() { panicked = recover() != nil }()
		e.Shard(0).At(msgs[0].Time, 1, 0, 0) // before the barrier at Time+W
	})
	e.Shard(0).At(10, 0, 0, 0)
	e.Run()
	if !panicked {
		t.Error("coordinator At before the barrier did not panic")
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := newFuncEngine(4)
	e.AdvanceTo(100)
	if e.Now() != 100 || e.Shard(0).Now() != 100 {
		t.Fatalf("Now = %d, shard clock = %d, want 100", e.Now(), e.Shard(0).Now())
	}
	// The idle advance moves the queue floor too: a later event still
	// fires at its own cycle.
	var at uint64
	e.at(5000, func() { at = e.now() })
	e.Run()
	if at != 5000 {
		t.Fatalf("event after idle advance fired at %d, want 5000", at)
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order of random delays.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := newFuncEngine(8)
		var times []uint64
		for _, d := range delays {
			e.at(uint64(d), func() { times = append(times, e.now()) })
		}
		e.Run()
		return len(times) == len(delays) &&
			sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		e := newFuncEngine(4)
		var trace []uint64
		var rec func(depth int)
		rec = func(depth int) {
			trace = append(trace, e.now())
			if depth < 3 {
				for i := 0; i < 2; i++ {
					e.at(e.now()+uint64(rng.Intn(7)), func() { rec(depth + 1) })
				}
			}
		}
		for i := 0; i < 10; i++ {
			e.at(uint64(rng.Intn(50)), func() { rec(0) })
		}
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("traces diverge:\n%v\n%v", a, b)
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := newFuncEngine(4)
	for i := 0; i < 5; i++ {
		e.at(uint64(i), func() {})
	}
	e.Run()
	if e.Shard(0).Processed != 5 {
		t.Fatalf("processed = %d, want 5", e.Shard(0).Processed)
	}
}

// TestEngineSameCycleFIFOHeavy schedules thousands of events on a
// handful of cycles, both from the coordinator between runs and from
// within running events. Scheduling order must be preserved within each
// cycle whichever side scheduled — the property the machine's
// determinism builds on.
func TestEngineSameCycleFIFOHeavy(t *testing.T) {
	e := newFuncEngine(4)
	var got, want []uint64
	seq := uint64(0)
	addAt := func(cycle uint64) {
		seq++
		s := seq
		e.at(cycle, func() { got = append(got, s) })
		want = append(want, s)
	}
	// Three hot cycles, scheduled in cycle order so `want` matches
	// execution order; heavy fan-in per cycle.
	for _, cycle := range []uint64{10, 11, 12} {
		for i := 0; i < 2000; i++ {
			addAt(cycle)
		}
	}
	// From inside an event at cycle 12, pile more onto the same cycle.
	e.at(12, func() {
		for i := 0; i < 1000; i++ {
			addAt(12)
		}
	})
	e.Run()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("executed %d events in a different order than the %d scheduled", len(got), len(want))
	}
}
