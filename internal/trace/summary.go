package trace

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"xmtfft/internal/stats"
)

// writeFaultCounts prints one line tallying EvFault events by kind, or
// nothing when the run recorded no faults.
func (r *Recorder) writeFaultCounts(w io.Writer) error {
	counts := map[FaultKind]uint64{}
	for i := range r.Events {
		if r.Events[i].Kind == EvFault {
			counts[FaultKind(r.Events[i].Aux)]++
		}
	}
	if len(counts) == 0 {
		return nil
	}
	parts := make([]string, 0, len(counts))
	for k := FaultKind(0); k <= FaultClusterDead; k++ {
		if n := counts[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k.Name(), n))
		}
	}
	_, err := fmt.Fprintf(w, "faults: %s\n", strings.Join(parts, " "))
	return err
}

// WriteSummary renders a flamegraph-style plain-text digest of the
// recording: one bar per spawn/join section scaled by its share of
// traced cycles, followed by thread-lifetime and epoch-utilization
// distribution summaries. Deterministic for identical recordings.
func (r *Recorder) WriteSummary(w io.Writer) error {
	secs := r.sections()
	label := r.Label
	if label == "" {
		label = "xmt run"
	}
	if _, err := fmt.Fprintf(w, "trace %s: %d events, %d samples, %d sections\n",
		label, len(r.Events), len(r.Samples), len(secs)); err != nil {
		return err
	}
	if err := r.writeFaultCounts(w); err != nil {
		return err
	}
	if len(secs) == 0 {
		return nil
	}

	var total, longest uint64
	for _, s := range secs {
		c := s.end - s.start
		total += c
		if c > longest {
			longest = c
		}
	}
	const barWidth = 32
	for _, s := range secs {
		c := s.end - s.start
		var bar string
		if longest > 0 {
			bar = strings.Repeat("#", int(c*barWidth/longest))
		}
		share := 0.0
		if total > 0 {
			share = float64(c) / float64(total) * 100
		}
		name := s.label
		if name == "" {
			name = "(unnamed spawn)"
		}
		hitPct := 100.0
		if s.mem > 0 {
			hitPct = float64(s.hits) / float64(s.mem) * 100
		}
		if _, err := fmt.Fprintf(w, "  %-26s %10d cyc %5.1f%% |%-*s| %6d thr %9d mem %5.1f%% hit\n",
			name, c, share, barWidth, bar, s.starts, s.mem, hitPct); err != nil {
			return err
		}
	}

	lives := r.threadLifetimes()
	if _, err := fmt.Fprintf(w, "thread lifetime (cycles): %s stddev=%.1f\n",
		distribution(lives), stddev(lives)); err != nil {
		return err
	}
	if len(r.Samples) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "epoch utilization (%d-cycle epochs):\n", r.Epoch); err != nil {
		return err
	}
	// Utilization prints in whole percent, clamped to 0..100: a port can
	// be granted slightly past an epoch edge, so a raw per-epoch fraction
	// may marginally exceed 1. A negative outstanding count is left out.
	pct := func(f float64) uint64 {
		if f < 0 {
			return 0
		}
		if f > 1 {
			return 100
		}
		return uint64(f * 100)
	}
	var fpu, lsu, dram, hit, outstanding []uint64
	for _, sm := range r.Samples {
		fpu = append(fpu, pct(sm.FPU))
		lsu = append(lsu, pct(sm.LSU))
		dram = append(dram, pct(sm.DRAM))
		hit = append(hit, pct(sm.HitRate))
		if sm.Outstanding >= 0 {
			outstanding = append(outstanding, uint64(sm.Outstanding))
		}
	}
	for _, row := range []struct {
		name    string
		samples []uint64
	}{
		{"fpu %", fpu},
		{"lsu %", lsu},
		{"dram %", dram},
		{"cache hit %", hit},
		{"outstanding", outstanding},
	} {
		if _, err := fmt.Fprintf(w, "  %-12s %s\n", row.name, distribution(row.samples)); err != nil {
			return err
		}
	}
	return nil
}

// threadLifetimes returns the cycles from start to retire of every
// thread the recording paired.
func (r *Recorder) threadLifetimes() []uint64 {
	var lives []uint64
	threads := threadPairs{}
	for i := range r.Events {
		ev := &r.Events[i]
		if st, ok := threads.next(ev); ok {
			lives = append(lives, ev.Start-st.Start)
		}
	}
	return lives
}

// distribution renders samples (sorting them in place) as "n=… mean=…
// p50=… p95=… max=…", each quantile the nearest-rank sample.
func distribution(samples []uint64) string {
	if len(samples) == 0 {
		return "n=0"
	}
	slices.Sort(samples)
	var sum uint64
	for _, v := range samples {
		sum += v
	}
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d max=%d",
		len(samples), float64(sum)/float64(len(samples)),
		stats.Quantile(samples, 0.5), stats.Quantile(samples, 0.95), samples[len(samples)-1])
}

// stddev returns the population standard deviation of samples (0 below
// two samples).
func stddev(samples []uint64) float64 {
	if len(samples) < 2 {
		return 0
	}
	var sum uint64
	var sumSq float64
	for _, v := range samples {
		sum += v
		sumSq += float64(v) * float64(v)
	}
	n := float64(len(samples))
	mean := float64(sum) / n
	v := sumSq/n - mean*mean
	if v < 0 {
		v = 0 // guard against floating-point cancellation
	}
	return math.Sqrt(v)
}
