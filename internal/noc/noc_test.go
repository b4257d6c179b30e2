package noc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"xmtfft/internal/config"
)

func TestMoTFixedLatency(t *testing.T) {
	n := NewMoT(config.FourK()) // 14 levels
	want := uint64(14 + baseLatency)
	if n.Latency() != want {
		t.Fatalf("latency = %d, want %d", n.Latency(), want)
	}
	// Any number of simultaneous packets traverse without interference.
	for i := 0; i < 100; i++ {
		if got := n.Traverse(10, i%128, (i*37)%128); got != 10+want {
			t.Fatalf("packet %d arrived at %d, want %d", i, got, 10+want)
		}
	}
	if n.Packets() != 100 {
		t.Fatalf("packets = %d", n.Packets())
	}
}

func TestNewSelectsTopology(t *testing.T) {
	n4, err := New(config.FourK())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n4.(*MoT); !ok {
		t.Fatalf("4k network is %T, want *MoT", n4)
	}
	n64, err := New(config.SixtyFourK())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n64.(*Hybrid); !ok {
		t.Fatalf("64k network is %T, want *Hybrid", n64)
	}
}

func TestHybridUncontendedLatency(t *testing.T) {
	cfg := config.SixtyFourK() // 8 MoT + 7 butterfly
	h, err := NewHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(8 + 7 + baseLatency)
	if h.Latency() != want {
		t.Fatalf("latency = %d, want %d", h.Latency(), want)
	}
	if got := h.Traverse(100, 5, 1234); got != 100+want {
		t.Fatalf("lone packet arrived at %d, want %d", got, 100+want)
	}
	if h.Blocked != 0 {
		t.Fatalf("lone packet was blocked %d cycles", h.Blocked)
	}
}

func TestHybridConvergingPacketsContend(t *testing.T) {
	cfg := config.SixtyFourK()
	h, err := NewHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Many sources to the same destination: must serialize inside the
	// butterfly, arriving strictly spread out.
	const dst = 42
	arrivals := map[uint64]int{}
	for src := 0; src < 64; src++ {
		arrivals[h.Traverse(0, src, dst)]++
	}
	if len(arrivals) < 32 {
		t.Fatalf("64 converging packets produced only %d distinct arrival cycles", len(arrivals))
	}
	if h.Blocked == 0 {
		t.Fatal("no blocking recorded for converging traffic")
	}
}

func TestHybridDisjointPathsDoNotContend(t *testing.T) {
	cfg := config.SixtyFourK()
	h, err := NewHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// src==dst traffic uses per-position switches exclusively.
	for i := 0; i < 512; i++ {
		if got := h.Traverse(0, i, i); got != h.Latency() {
			t.Fatalf("identity packet %d arrived at %d, want %d", i, got, h.Latency())
		}
	}
	if h.Blocked != 0 {
		t.Fatalf("identity traffic blocked %d cycles", h.Blocked)
	}
}

func TestButterflyThroughputRecurrence(t *testing.T) {
	// Hand-iterated values of q_{i+1} = 1-(1-q_i/2)^2 from q_0 = 1.
	want := []float64{1, 0.75, 0.609375, 0.51654, 0.44984, 0.39925, 0.35940, 0.32711}
	for s, w := range want {
		got := ButterflyThroughput(s, 1)
		if math.Abs(got-w) > 1e-4 {
			t.Errorf("throughput(%d stages) = %.5f, want %.5f", s, got, w)
		}
	}
}

func TestButterflyThroughputProperties(t *testing.T) {
	// Monotone decreasing in stages; monotone increasing in load;
	// never exceeds load; zero/garbage loads handled.
	prev := 1.0
	for s := 0; s <= 12; s++ {
		cur := ButterflyThroughput(s, 1)
		if cur > prev+1e-12 {
			t.Fatalf("throughput increased at stage %d: %g > %g", s, cur, prev)
		}
		prev = cur
	}
	if ButterflyThroughput(5, 0.3) > 0.3 {
		t.Fatal("acceptance exceeded offered load")
	}
	if ButterflyThroughput(5, 0.1) >= ButterflyThroughput(5, 0.9) {
		t.Fatal("throughput not increasing in load")
	}
	if ButterflyThroughput(3, 0) != 0 {
		t.Fatal("zero load should give zero throughput")
	}
	if ButterflyThroughput(3, 2) != ButterflyThroughput(3, 1) {
		t.Fatal("load should clamp to 1")
	}
}

func TestEffectiveBandwidthOrdering(t *testing.T) {
	// Paper §VI-B: the 128k configurations have fewer MoT levels (more
	// butterfly levels) than 64k and hence worse relative NoC throughput;
	// 4k and 8k are non-blocking.
	cfgs := config.Paper()
	f4 := EffectiveBandwidthFraction(cfgs[0])
	f8 := EffectiveBandwidthFraction(cfgs[1])
	f64 := EffectiveBandwidthFraction(cfgs[2])
	fx2 := EffectiveBandwidthFraction(cfgs[3])
	fx4 := EffectiveBandwidthFraction(cfgs[4])
	if f4 != 1 || f8 != 1 {
		t.Fatalf("pure MoT fractions = %g, %g, want 1", f4, f8)
	}
	if !(f64 > fx2) {
		t.Fatalf("64k fraction %g should exceed 128k fraction %g", f64, fx2)
	}
	if fx2 != fx4 {
		t.Fatalf("x2 and x4 share a NoC: fractions %g != %g", fx2, fx4)
	}
}

// Cross-validation: the switch-level Hybrid under saturating uniform
// random traffic should deliver roughly the closed-form acceptance rate.
func TestHybridMatchesAnalyticThroughput(t *testing.T) {
	cfg, err := config.SixtyFourK().Scaled(2048) // 64 clusters
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ports := cfg.Clusters
	const perPort = 200
	var last uint64
	for i := 0; i < ports*perPort; i++ {
		// Saturating: every port injects one packet per cycle.
		tIn := uint64(i / ports)
		arr := h.Traverse(tIn, i%ports, rng.Intn(ports))
		if arr > last {
			last = arr
		}
	}
	injected := float64(ports * perPort)
	duration := float64(last) - float64(h.Latency())
	measured := injected / (duration * float64(ports))
	predicted := ButterflyThroughput(cfg.ButterflyLevels, 1)
	if measured < predicted*0.5 || measured > math.Min(1, predicted*2.0) {
		t.Errorf("measured per-port throughput %.3f vs analytic %.3f: disagree by >2x", measured, predicted)
	}
}

func TestNewHybridRejectsNonPowerOfTwo(t *testing.T) {
	cfg := config.SixtyFourK()
	cfg.Clusters = 100
	if _, err := NewHybrid(cfg); err == nil {
		t.Fatal("accepted non-power-of-two cluster count")
	}
}

// TestRepeatMatchesTraverse is RepeatN's oracle: from random switch
// states, Traverse(t) followed by RepeatN(k) (k in 1..15) leaves the
// same switch ports, Blocked and packet count as Traverse(t),
// Traverse(t+1), …, Traverse(t+k) on the same route, whose arrivals
// are the cycles after the first's, as RepeatN's contract says. It
// covers the mesh-of-trees and hybrid networks with 2, 3, 7 and 9
// butterfly levels.
func TestRepeatMatchesTraverse(t *testing.T) {
	var cfgs []config.Config
	for _, tcus := range []int{0, 1024, 2048} {
		for _, base := range []config.Config{config.FourK(), config.SixtyFourK(), config.OneTwentyEightKx4()} {
			cfg := base
			if tcus > 0 {
				var err error
				if cfg, err = base.Scaled(tcus); err != nil {
					t.Fatal(err)
				}
			}
			cfgs = append(cfgs, cfg)
		}
	}
	build := func(cfg config.Config) Network {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	f := func(ci uint8, seed int64, t0 uint16, src, dst uint16, k uint8) bool {
		cfg := cfgs[int(ci)%len(cfgs)]
		rng := rand.New(rand.NewSource(seed))
		at := uint64(t0) + 64
		a, b := build(cfg), build(cfg)
		st, err := CaptureState(a)
		if err != nil {
			t.Fatal(err)
		}
		// Busy switches: every port's next free slot lies within a few
		// cycles of t on either side, so the route both waits and not.
		for s := range st.Stages {
			for i := range st.Stages[s] {
				st.Stages[s][i].NextFree = at + uint64(rng.Intn(24)) - 8
				st.Stages[s][i].Busy = uint64(rng.Intn(1000))
			}
		}
		st.Packets, st.Blocked = uint64(rng.Intn(1000)), uint64(rng.Intn(1000))
		if RestoreState(a, st) != nil || RestoreState(b, st) != nil {
			t.Fatal("restore failed")
		}
		from, to := int(src)%cfg.Clusters, int(dst)%cfg.MemModules
		n := uint64(k%15) + 1
		first := a.Traverse(at, from, to)
		a.RepeatN(n)
		for i := uint64(0); i <= n; i++ {
			if got := b.Traverse(at+i, from, to); got != first+i {
				t.Logf("%s: packet %d of %d from %d to %d at %d arrives at %d, want %d", cfg.Name, i, n, from, to, at, got, first+i)
				return false
			}
		}
		sa, _ := CaptureState(a)
		sb, _ := CaptureState(b)
		if !reflect.DeepEqual(sa, sb) {
			t.Logf("%s: states differ after %d followers", cfg.Name, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHybridTraverse times one request packet through the hybrid
// network of 64k scaled to 1024 TCUs (32 ports, 2 butterfly levels), the
// sim-64k-dram geometry, under saturating uniform random traffic.
func BenchmarkHybridTraverse(b *testing.B) {
	cfg, err := config.SixtyFourK().Scaled(1024)
	if err != nil {
		b.Fatal(err)
	}
	h, err := NewHybrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	dsts := make([]int, 4096)
	for i := range dsts {
		dsts[i] = rng.Intn(cfg.MemModules)
	}
	ports := cfg.Clusters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Traverse(uint64(i/ports), i%ports, dsts[i%len(dsts)])
	}
}

// BenchmarkHybridRepeatN times a same-line run of four requests on the
// BenchmarkHybridTraverse geometry and traffic: a leader Traverse at
// cycle t and three followers on the next cycles, sent as Traverses
// (the general path) or as one RepeatN. One op is one run.
func BenchmarkHybridRepeatN(b *testing.B) {
	cfg, err := config.SixtyFourK().Scaled(1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	dsts := make([]int, 4096)
	for i := range dsts {
		dsts[i] = rng.Intn(cfg.MemModules)
	}
	ports := cfg.Clusters
	for _, repeat := range []bool{false, true} {
		name := "traverse"
		if repeat {
			name = "repeat"
		}
		b.Run(name, func(b *testing.B) {
			h, err := NewHybrid(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, src, dst := uint64(i/ports)*4, i%ports, dsts[i%len(dsts)]
				h.Traverse(t, src, dst)
				if repeat {
					h.RepeatN(3)
				} else {
					for k := uint64(1); k < 4; k++ {
						h.Traverse(t+k, src, dst)
					}
				}
			}
		})
	}
}
