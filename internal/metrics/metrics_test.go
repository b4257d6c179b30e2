package metrics

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_events", "events")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	c.Set(7)
	if got := c.Value(); got != 7 {
		t.Fatalf("counter after Set = %d, want 7", got)
	}
	g := reg.Gauge("test_depth", "depth")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	g.SetUint(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %g, want 9", got)
	}
}

func TestVecChildrenStableAndCached(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("test_ops", "ops", "kind")
	a1 := v.With("fp")
	a2 := v.With("fp")
	if a1 != a2 {
		t.Fatal("With returned distinct children for same label value")
	}
	b := v.With("alu")
	if a1 == b {
		t.Fatal("distinct label values share a child")
	}
	a1.Add(3)
	if b.Value() != 0 {
		t.Fatal("child counters not independent")
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_latency", "latency", 1, 2, 4, 8)
	for _, v := range []float64{0.5, 1, 1.5, 3, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 111.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	// per bucket: le=1 → 2, le=2 → 1, le=4 → 1, le=8 → 1, +Inf → 1
	if got := h.bucketCounts(); !slices.Equal(got, []uint64{2, 1, 1, 1, 1}) {
		t.Fatalf("bucketCounts = %v", got)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.Counter("test_dup", "x")
	mustPanic("duplicate name", func() { reg.Counter("test_dup", "y") })
	mustPanic("invalid name", func() { reg.Counter("9bad", "x") })
	mustPanic("reserved suffix", func() { reg.Counter("test_events_total", "x") })
	mustPanic("reserved label", func() { reg.CounterVec("test_v", "x", "__name__") })
	mustPanic("histogram le label would collide", func() {
		f := reg.register("test_h2", "x", TypeHistogram, []string{"le"}, []string{"le"})
		_ = f
	})
	mustPanic("unsorted bounds", func() { reg.Histogram("test_h3", "x", 2, 1) })
	mustPanic("empty bounds", func() { reg.Histogram("test_h4", "x") })
	mustPanic("wrong label arity", func() {
		v := reg.CounterVec("test_v2", "x", "a", "b")
		v.With("only-one")
	})
}

// TestConcurrentWritesAndScrapes exercises the lock-free hot path under
// the race detector: writers hammer counters/gauges/histograms while a
// reader encodes the registry.
func TestConcurrentWritesAndScrapes(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_events", "events")
	g := reg.Gauge("test_cycle", "cycle")
	h := reg.Histogram("test_lat", "lat", 1, 10, 100)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Inc()
				g.SetUint(seed + uint64(i))
				h.Observe(float64(i % 128))
			}
		}(uint64(w) * 1000)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := reg.WriteOpenMetrics(&sb); err != nil {
				t.Errorf("encode: %v", err)
				return
			}
			if _, err := Parse(strings.NewReader(sb.String())); err != nil {
				t.Errorf("parse mid-run: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", h.Count())
	}
}
