package main

// sim-64k-dram: a 64^3 complex64 forward FFT in the detailed simulator
// on the 64k configuration scaled to 1024 TCUs (32 clusters, 1 MiB of
// modelled cache, 4 DRAM channels, a 3 MoT + 2 butterfly hybrid NoC),
// on the sharded engine at one worker. Data plus scratch is 4x the
// modelled cache, which makes it the paper's bandwidth-bound regime at
// a size that simulates in about a second. Every FFT runs on a fresh
// machine, so the modelled caches start empty, as in every xmtfft run.

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/model"
	"xmtfft/internal/noc"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

const (
	simN   = 64
	simTCU = 1024
	// simTol bounds the RMS relative error of the simulated transform
	// against the complex128 reference; single-precision radix-8
	// passes with a decaying twiddle table stay well inside it.
	simTol = 1e-5
)

func simConfig() (config.Config, error) { return config.SixtyFourK().Scaled(simTCU) }

// simOp is everything one simulated FFT yields.
type simOp struct {
	run      stats.Run
	sim      xmt.SimStats
	queue    uint64             // mem.System.QueueDelay
	busy     uint64             // mem.System.ChannelBusy
	blocked  uint64             // noc.Hybrid.Blocked
	setup    time.Duration      // thread CPU time, as all host times here
	elapsed  time.Duration      // of the simulated FFT
	wall     time.Duration      // of the simulated FFT, wall clock
	phaseSec map[string]float64 // seconds per phase kind (traced only)
	out      []complex64
}

// phaseKind maps a core phase name to the layer metric it counts in.
func phaseKind(name string) string {
	switch {
	case strings.HasPrefix(name, "rotate"):
		return "rotate"
	case strings.HasPrefix(name, "twiddle"):
		return "twiddle"
	default:
		return "fft"
	}
}

// simOnce builds a fresh machine and transform (the timed set-up),
// loads input and simulates one forward FFT.
func simOnce(cfg config.Config, input []complex64, rec *recorder, parent int) (*simOp, error) {
	op := &simOp{}
	sp := rec.begin("xmt", "setup", parent, 1)
	w := startWatch()
	m, err := xmt.NewParallel(cfg, 1)
	if err != nil {
		return nil, err
	}
	tr, err := core.New3D(m, simN, simN, simN)
	if err != nil {
		return nil, err
	}
	op.setup = w.cpuSince()
	rec.end(sp)
	copy(tr.Data, input)

	var ctl core.RunControl
	if rec != nil {
		op.phaseSec = map[string]float64{}
		last := startWatch()
		ctl.AfterPhase = func(done int, partial *stats.Run) error {
			name := partial.Phases[len(partial.Phases)-1].Name
			op.phaseSec[phaseKind(name)] += last.cpuSince().Seconds()
			rec.add("core", name, last.wall, time.Now(), parent, 1)
			last = startWatch()
			return nil
		}
	}
	w = startWatch()
	run, err := tr.RunCheckpointed(fft.Forward, ctl)
	op.wall, op.elapsed = w.since()
	if err != nil {
		return nil, err
	}
	op.run = run
	op.sim = m.SimStats()
	op.queue = m.Memory().QueueDelay()
	op.busy = m.Memory().ChannelBusy()
	if h, ok := m.Network().(*noc.Hybrid); ok {
		op.blocked = h.Blocked
	}
	op.out = tr.Data
	return op, nil
}

// simDigest fingerprints every phase's name, cycles, counters and
// utilisation: the simulated behaviour, independent of host speed.
func simDigest(r stats.Run) string {
	h := fnv.New64a()
	for _, p := range r.Phases {
		fmt.Fprintf(h, "%q %d %+v %+v\n", p.Name, p.Cycles, p.Ops, p.Util)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func runSim(c runCtx) (*outcome, error) {
	cfg, err := simConfig()
	if err != nil {
		return nil, err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	npts := simN * simN * simN
	input := seededComplex(c.seed, npts)
	ref := widen(input)
	p, err := fft.NewPlan3D[complex128](simN, simN, simN)
	if err != nil {
		return nil, err
	}
	if err := p.Transform(ref, fft.Forward); err != nil {
		return nil, err
	}

	o := newOutcome()
	// The untimed warm-up FFT fixes the digest every timed FFT must
	// repeat; each timed FFT is also checked against the reference.
	warm, err := simOnce(cfg, input, nil, 0)
	if err != nil {
		return nil, err
	}
	digest := simDigest(warm.run)
	errWarm := relErr(warm.out, ref)

	var setups, lat, wall []float64
	host := map[string][]float64{}
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	var last *simOp
	for time.Now().Before(deadline) || o.attempted == 0 {
		// Every FFT starts from a collected heap, so how much collection
		// work lands inside it does not depend on what the previous FFT
		// left behind.
		runtime.GC()
		sp := c.rec.begin("bench", "fft", 0, 1)
		op, err := simOnce(cfg, input, c.rec, sp)
		c.rec.end(sp)
		if err != nil {
			return nil, err
		}
		o.attempted++
		setups = append(setups, op.setup.Seconds())
		lat = append(lat, op.elapsed.Seconds()*1e3)
		wall = append(wall, op.wall.Seconds()*1e3)
		vs := c.rec.begin("bench", "verify", 0, 1)
		if d := simDigest(op.run); d != digest {
			o.failed++
			lat[len(lat)-1] = math.Inf(1)
			o.notef("FAIL fft %d digest %s, want %s", o.attempted, d, digest)
		} else if e := relErr(op.out, ref); e > simTol {
			o.failed++
			lat[len(lat)-1] = math.Inf(1)
			o.notef("FAIL fft %d rel_err %.3g", o.attempted, e)
		}
		c.rec.end(vs)
		for k, v := range op.phaseSec {
			host[k] = append(host[k], v)
		}
		last = op
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	run := last.run
	cycles := run.TotalCycles()
	ops := run.TotalOps()
	p50 := median(lat)
	o.digest = digest
	o.e2e["setup_s"] = median(setups)
	o.e2e["peak_rss_mb"] = rss
	o.setOpTimes(lat, stats.StandardFFTFlops(npts))
	o.e2e["rel_err"] = errWarm
	simGflops := stats.StandardGFLOPS(npts, cycles, config.ClockGHz)
	o.notef("sim %s n=%d^3 ffts=%d cycles=%d sim_gflops=%.6f p50_ms=%.3f wall_p50_ms=%.3f",
		cfg.Name, simN, o.attempted, cycles, simGflops, p50, median(wall))

	l := o.layer
	for _, ph := range run.Phases {
		l["core."+phaseKind(ph.Name)+"_cycles"] += float64(ph.Cycles)
	}
	for k, v := range host {
		l["core."+k+"_host_s"] = median(v)
	}
	util := run.Overall().Util
	l["xmt.fpu_util"], l["xmt.lsu_util"], l["xmt.dram_util"] = util.FPU, util.LSU, util.DRAM
	l["xmt.threads"] = float64(ops.Threads)
	l["sim_gflops"] = simGflops
	l["sim.events"] = float64(last.sim.Events)
	l["sim.windows"] = float64(last.sim.Windows)
	l["sim.barriers"] = float64(last.sim.Barriers)
	l["sim.messages"] = float64(last.sim.Messages)
	if last.sim.Events > 0 {
		l["sim.ns_per_event"] = p50 * 1e6 / float64(last.sim.Events)
	}
	l["sim_mops"] = float64(usefulEvents(ops)) / (p50 / 1e3) / 1e6
	l["mem.hit_rate"] = ops.HitRate()
	l["mem.dram_bytes"] = float64(ops.DRAMBytes)
	if rows := ops.RowHits + ops.RowMisses; rows > 0 {
		l["mem.row_hit_rate"] = float64(ops.RowHits) / float64(rows)
	}
	l["mem.queue_delay_cycles"] = float64(last.queue)
	l["mem.channel_busy_cycles"] = float64(last.busy)
	l["noc.packets"] = float64(ops.NoCPackets)
	l["noc.blocked_cycles"] = float64(last.blocked)
	if ops.NoCPackets > 0 {
		l["noc.blocked_per_packet"] = float64(last.blocked) / float64(ops.NoCPackets)
	}
	mc, err := model.ProjectCycles(cfg, simN)
	if err != nil {
		return nil, err
	}
	l["model.cycles"] = float64(mc)
	if mc > 0 {
		l["model.ratio"] = float64(cycles) / float64(mc)
	}
	return o, nil
}
