package sim

import (
	"sync"
	"testing"
	"time"
)

// chainHandler schedules a follow-up event until left events have run:
// a single-shard event chain on the inline driver.
type chainHandler struct {
	left int
	gap  uint64
}

func (c *chainHandler) Event(sh *Shard, t uint64, op uint8, a, b uint64) {
	c.left--
	if c.left > 0 {
		sh.At(t+c.gap, 0, 0, 0)
	}
}

// newChain builds a one-shard engine on the inline driver running a
// chain of n events gap cycles apart.
func newChain(n int, gap uint64) *ParallelEngine {
	e := NewParallelEngine(staticPart{n: 1, w: 4}, 1)
	e.SetHandler(0, &chainHandler{left: n, gap: gap})
	e.SetBarrier(func([]Message) {})
	e.Shard(0).At(0, 0, 0, 0)
	return e
}

// The inline (serial) driver publishes exactly like the goroutine
// driver: totals, frontier, drained queue and a per-shard view.
func TestSerialEngineTelemetryPublishes(t *testing.T) {
	e := newChain(5000, 3)
	tel := &Telemetry{}
	e.SetTelemetry(tel)
	end := e.Run()

	processed := e.Shard(0).Processed
	if got := tel.Events.Load(); got != processed || processed != 5000 {
		t.Fatalf("telemetry events = %d, shard processed %d, want 5000", got, processed)
	}
	if got := tel.Cycle.Load(); got != end {
		t.Fatalf("telemetry cycle = %d, want %d", got, end)
	}
	if got := tel.Windows.Load(); got != e.Windows {
		t.Fatalf("telemetry windows = %d, want %d", got, e.Windows)
	}
	if got := tel.Pending.Load(); got != 0 {
		t.Fatalf("telemetry pending = %d, want 0 after drain", got)
	}
	view := tel.ShardView()
	if len(view) != 1 {
		t.Fatalf("one-shard engine published %d shards", len(view))
	}
	if got := view[0].Events.Load(); got != processed {
		t.Fatalf("shard 0 events = %d, want %d", got, processed)
	}
	if _, ok := tel.HeartbeatAge(time.Now()); !ok {
		t.Fatal("heartbeat never stamped")
	}
}

func TestSerialEngineTelemetryWatchdogSeries(t *testing.T) {
	e := newChain(2000, 1)
	wd := NewWatchdog(1 << 20)
	e.SetWatchdog(wd)
	tel := &Telemetry{}
	e.SetTelemetry(tel)
	const mid = 500
	e.SetHook(hookFunc(func(prev, now uint64) {
		if prev < mid && mid <= now {
			wd.Progress(mid)
		}
	}))
	e.Run()
	if got := tel.WatchdogLast.Load(); got != mid {
		t.Fatalf("watchdog last = %d, want %d", got, mid)
	}
	if got := tel.WatchdogWindow.Load(); got != 1<<20 {
		t.Fatalf("watchdog window = %d", got)
	}
}

func TestTelemetrySharedAcrossEngines(t *testing.T) {
	tel := &Telemetry{}
	var total uint64
	for i := 0; i < 3; i++ {
		e := newChain(100, 2)
		e.SetTelemetry(tel)
		e.Run()
		total += e.Shard(0).Processed
	}
	if got := tel.Events.Load(); got != total || total != 300 {
		t.Fatalf("shared telemetry events = %d, want %d (cumulative across engines)", got, total)
	}
}

func TestEnsureShardsPreservesCounts(t *testing.T) {
	tel := &Telemetry{}
	a := tel.EnsureShards(2)
	a[1].Events.Add(7)
	b := tel.EnsureShards(4)
	if len(b) != 4 {
		t.Fatalf("len = %d", len(b))
	}
	if b[1] != a[1] || b[1].Events.Load() != 7 {
		t.Fatal("EnsureShards dropped existing shard entries")
	}
	if got := tel.EnsureShards(2); len(got) != 4 {
		t.Fatal("EnsureShards shrank the view")
	}
}

func TestParallelEngineTelemetryPerShard(t *testing.T) {
	const shards = 4
	run := func(workers int, tel *Telemetry) *ParallelEngine {
		e := NewParallelEngine(staticPart{n: shards, w: 8}, workers)
		h := &pingHandler{e: e, limit: 4000}
		for i := 0; i < shards; i++ {
			e.SetHandler(i, h)
			e.Shard(i).At(uint64(i), 0, uint64(i), 0)
		}
		e.SetBarrier(func(msgs []Message) {
			for _, m := range msgs {
				dst := (int(m.Src) + 1) % shards
				e.Shard(dst).At(m.Time+8, 0, m.A, 0)
			}
		})
		if tel != nil {
			e.SetTelemetry(tel)
		}
		e.Run()
		return e
	}

	tel := &Telemetry{}
	e := run(2, tel)

	var wantEvents uint64
	for i := 0; i < shards; i++ {
		wantEvents += e.Shard(i).Processed
	}
	if got := tel.Events.Load(); got != wantEvents {
		t.Fatalf("telemetry events = %d, want %d", got, wantEvents)
	}
	if got := tel.Cycle.Load(); got != e.Now() {
		t.Fatalf("telemetry cycle = %d, want %d", got, e.Now())
	}
	if got := tel.Windows.Load(); got != e.Windows {
		t.Fatalf("telemetry windows = %d, want %d", got, e.Windows)
	}
	if got := tel.Messages.Load(); got != e.Messages {
		t.Fatalf("telemetry messages = %d, want %d", got, e.Messages)
	}
	view := tel.ShardView()
	if len(view) != shards {
		t.Fatalf("shard view len = %d, want %d", len(view), shards)
	}
	for i := 0; i < shards; i++ {
		if got := view[i].Events.Load(); got != e.Shard(i).Processed {
			t.Fatalf("shard %d events = %d, want %d", i, got, e.Shard(i).Processed)
		}
	}

	// Determinism: telemetry must not perturb results — same final cycle
	// and event counts with telemetry off, and across worker counts.
	base := run(1, nil)
	if base.Now() != e.Now() || base.Windows != e.Windows || base.Messages != e.Messages {
		t.Fatalf("telemetry perturbed the run: now %d vs %d, windows %d vs %d, messages %d vs %d",
			base.Now(), e.Now(), base.Windows, e.Windows, base.Messages, e.Messages)
	}
	for i := 0; i < shards; i++ {
		if base.Shard(i).Processed != e.Shard(i).Processed {
			t.Fatalf("shard %d processed differs with telemetry on", i)
		}
	}
}

// TestTelemetryConcurrentScrape reads telemetry from another goroutine
// while the parallel engine runs with multiple workers — the exact
// deployment shape of the /metrics server — under the race detector.
func TestTelemetryConcurrentScrape(t *testing.T) {
	const shards = 4
	tel := &Telemetry{}
	e := NewParallelEngine(staticPart{n: shards, w: 8}, 2)
	h := &pingHandler{e: e, limit: 20000}
	for i := 0; i < shards; i++ {
		e.SetHandler(i, h)
		e.Shard(i).At(uint64(i), 0, uint64(i), 0)
	}
	e.SetBarrier(func(msgs []Message) {
		for _, m := range msgs {
			e.Shard((int(m.Src)+1)%shards).At(m.Time+8, 0, m.A, 0)
		}
	})
	e.SetTelemetry(tel)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastCycle uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := tel.Cycle.Load()
			if c < lastCycle {
				t.Error("cycle frontier went backwards")
				return
			}
			lastCycle = c
			tel.Events.Load()
			tel.Pending.Load()
			for _, sh := range tel.ShardView() {
				sh.Events.Load()
				sh.Cycle.Load()
				sh.Pending.Load()
			}
			tel.HeartbeatAge(time.Now())
		}
	}()
	e.Run()
	close(stop)
	wg.Wait()
}

// staticPart is a fixed Partition for telemetry tests.
type staticPart struct {
	n int
	w uint64
}

func (p staticPart) Shards() int       { return p.n }
func (p staticPart) Lookahead() uint64 { return p.w }

// pingHandler bounces an event between shards via barrier messages and
// local follow-ups until the cycle limit.
type pingHandler struct {
	e     *ParallelEngine
	limit uint64
}

func (h *pingHandler) Event(sh *Shard, t uint64, op uint8, a, b uint64) {
	if op == 1 {
		return // local filler, no propagation
	}
	if t >= h.limit {
		return
	}
	sh.At(t+1, 1, 0, 0)
	sh.Send(0, a+1, 0, 0, 0)
}

// The benchmark pair backing the zero-overhead-when-off contract for
// telemetry on the inline driver, mirroring the tracing-overhead
// benchmarks: the Off variant must match the historical no-hook
// numbers, the On variant shows the amortized publish cost.

func benchSerialChain(b *testing.B, tel *Telemetry) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := newChain(100000, 2)
		if tel != nil {
			e.SetTelemetry(tel)
		}
		e.Run()
	}
}

func BenchmarkEngineTelemetryOff(b *testing.B) { benchSerialChain(b, nil) }

func BenchmarkEngineTelemetryOn(b *testing.B) { benchSerialChain(b, &Telemetry{}) }
