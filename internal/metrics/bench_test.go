package metrics

import (
	"fmt"
	"io"
	"testing"
)

// The hot-path benchmarks back the zero-alloc contract: instrumented
// simulation code calls Counter.Add / Gauge.Set / Histogram.Observe per
// event or per window, so any allocation here would show up as GC
// pressure on multi-hour runs. The obs suite of `xmtbench -bench obs`
// records allocs per call in BENCH_obs.json and fails when one is not
// zero; TestHotPathZeroAlloc asserts it directly on every test run.

func BenchmarkCounterAdd(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_events", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	reg := NewRegistry()
	g := reg.Gauge("bench_cycle", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench_lat", "x", 1, 8, 64, 512, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 1023))
	}
}

func BenchmarkVecWithCached(b *testing.B) {
	reg := NewRegistry()
	v := reg.CounterVec("bench_ops", "x", "kind")
	c := v.With("fp") // resolved once, as hot code is required to do
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkWriteOpenMetrics encodes a registry the size of one
// simulated machine's series: two labeled counter families, nine
// counters and seven gauges.
func BenchmarkWriteOpenMetrics(b *testing.B) {
	reg := NewRegistry()
	ops := reg.CounterVec("bench_ops", "x", "kind")
	for _, k := range []string{"fp", "alu", "load", "store", "ps"} {
		ops.With(k).Set(1 << 20)
	}
	faults := reg.CounterVec("bench_faults", "x", "kind")
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		faults.With(k).Set(3)
	}
	for i := 0; i < 9; i++ {
		reg.Counter(fmt.Sprintf("bench_counter_%d", i), "x").Set(uint64(i) << 30)
	}
	for i := 0; i < 7; i++ {
		reg.Gauge(fmt.Sprintf("bench_gauge_%d", i), "x").Set(float64(i) / 7)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := reg.WriteOpenMetrics(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_events", "x")
	g := reg.Gauge("test_cycle", "x")
	h := reg.Histogram("test_lat", "x", 1, 8, 64)
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(7) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op", n)
	}
}
