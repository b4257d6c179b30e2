package mem

import (
	"testing"

	"xmtfft/internal/config"
)

func newFaultSystem(t *testing.T) *System {
	t.Helper()
	cfg, err := config.FourK().Scaled(512)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drive issues a deterministic miss-heavy access pattern and returns
// total completion latency plus the last result.
func drive(s *System, n int) (sum uint64, last AccessResult) {
	for i := 0; i < n; i++ {
		addr := uint64(i) * config.CacheLineBytes * 7
		last = access(s, uint64(i)*4, addr, i%3 == 0)
		sum += last.Done
	}
	return sum, last
}

func TestEnableFaultsZeroRatesIsNoOp(t *testing.T) {
	a, b := newFaultSystem(t), newFaultSystem(t)
	b.EnableFaults(1, 0, 0, true)
	if b.FaultsEnabled() {
		t.Fatal("zero rates must not arm fault injection")
	}
	sa, _ := drive(a, 2000)
	sb, _ := drive(b, 2000)
	if sa != sb {
		t.Fatalf("zero-rate EnableFaults changed timing: %d vs %d", sa, sb)
	}
	if c, u, sl := b.ECCStats(); c+u+sl != 0 {
		t.Fatalf("fault counters nonzero: %d/%d/%d", c, u, sl)
	}
}

func TestECCCorrectionAddsLatency(t *testing.T) {
	clean, ecc := newFaultSystem(t), newFaultSystem(t)
	ecc.EnableFaults(7, 0.5, 0, true)
	sClean, _ := drive(clean, 2000)
	sECC, _ := drive(ecc, 2000)
	corrected, uncorrectable, silent := ecc.ECCStats()
	if corrected == 0 {
		t.Fatal("ber=0.5 over 2000 accesses produced no corrections")
	}
	if uncorrectable != 0 || silent != 0 {
		t.Fatalf("unexpected uncorrectable=%d silent=%d", uncorrectable, silent)
	}
	if want := sClean + corrected*ECCCorrectCycles; sECC != want {
		t.Fatalf("total latency %d, want clean %d + %d corrections * %d = %d",
			sECC, sClean, corrected, ECCCorrectCycles, want)
	}
}

func TestDoubleBitErrorsDetectedNotCorrected(t *testing.T) {
	s := newFaultSystem(t)
	s.EnableFaults(3, 0, 0.3, true)
	sawUncorrectable := false
	for i := 0; i < 2000; i++ {
		addr := uint64(i) * config.CacheLineBytes * 5
		res := access(s, uint64(i)*4, addr, false)
		if res.Fault == FaultECCUncorrectable {
			sawUncorrectable = true
		}
		if res.Fault == FaultECCCorrected {
			t.Fatal("double-bit error reported as corrected")
		}
	}
	if !sawUncorrectable {
		t.Fatal("dber=0.3 produced no uncorrectable results")
	}
	_, u, _ := s.ECCStats()
	if u == 0 {
		t.Fatal("uncorrectable counter stayed zero")
	}
}

func TestNoECCFaultsAreSilentAndFree(t *testing.T) {
	clean, bare := newFaultSystem(t), newFaultSystem(t)
	bare.EnableFaults(7, 0.5, 0.01, false)
	sClean, _ := drive(clean, 2000)
	sBare, lastBare := drive(bare, 2000)
	if sBare != sClean {
		t.Fatalf("ECC-off faults changed timing: %d vs %d", sBare, sClean)
	}
	c, u, silent := bare.ECCStats()
	if c != 0 || u != 0 {
		t.Fatalf("ECC-off run recorded ECC outcomes: corrected=%d uncorrectable=%d", c, u)
	}
	if silent == 0 {
		t.Fatal("ECC-off faults not tallied as silent")
	}
	_ = lastBare
}

func TestFaultSequenceIndependentOfECCSetting(t *testing.T) {
	// Same seed, same access pattern: the set of faulted fetches must be
	// identical whether ECC is on or off (one draw per fetch either way).
	on, off := newFaultSystem(t), newFaultSystem(t)
	on.EnableFaults(11, 0.2, 0.05, true)
	off.EnableFaults(11, 0.2, 0.05, false)
	drive(on, 3000)
	drive(off, 3000)
	c, u, _ := on.ECCStats()
	_, _, silent := off.ECCStats()
	if c+u != silent {
		t.Fatalf("fault totals differ across protection settings: ecc-on %d+%d, ecc-off %d",
			c, u, silent)
	}
}

func TestFaultsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) [3]uint64 {
		s := newFaultSystem(t)
		s.EnableFaults(seed, 0.1, 0.02, true)
		drive(s, 3000)
		c, u, sl := s.ECCStats()
		return [3]uint64{c, u, sl}
	}
	if a, b := run(5), run(5); a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if a, b := run(5), run(6); a == b {
		t.Fatalf("different seeds coincided exactly: %v", a)
	}
}

func TestHitsNeverFault(t *testing.T) {
	s := newFaultSystem(t)
	s.EnableFaults(9, 1, 0, true) // every fetch errors
	addr := uint64(4096)
	first := access(s, 0, addr, false)
	if first.Hit || first.Fault != FaultECCCorrected {
		t.Fatalf("first access: hit=%v fault=%v, want miss+corrected", first.Hit, first.Fault)
	}
	again := access(s, first.Done, addr, false)
	if !again.Hit {
		t.Fatal("second access should hit")
	}
	if again.Fault != FaultNone {
		t.Fatalf("cache hit reported fault %v; errors occur on line fetches only", again.Fault)
	}
}
