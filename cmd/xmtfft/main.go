// Command xmtfft runs a single-precision FFT on a simulated XMT machine
// and reports cycles, per-phase breakdown and GFLOPS. Two modes:
//
//   - detailed (default): event-driven simulation of a (scaled) machine
//     executing the real kernel at a tractable size;
//   - -model: the analytic projection used for the paper-scale results.
//
// Examples:
//
//	xmtfft -config 4k -tcus 1024 -n 32 -dims 3
//	xmtfft -config "128k x4" -model -n 512
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"time"

	"xmtfft/internal/ckpt"
	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fault"
	"xmtfft/internal/fft"
	"xmtfft/internal/harness"
	"xmtfft/internal/model"
	"xmtfft/internal/stats"
	"xmtfft/internal/trace"
	"xmtfft/internal/viz"
	"xmtfft/internal/xmt"
)

func main() {
	cfgName := flag.String("config", "4k", `configuration: "4k", "8k", "64k", "128k x2", "128k x4"`)
	tcus := flag.Int("tcus", 0, "scale the machine down to this many TCUs for detailed simulation (0 = full size)")
	n := flag.Int("n", 32, "points per dimension (power of two)")
	dims := flag.Int("dims", 3, "1, 2 or 3 dimensions")
	useModel := flag.Bool("model", false, "use the analytic projection instead of detailed simulation")
	coarse := flag.Bool("coarse", false, "coarse-grained kernel (one thread per row) instead of fine-grained")
	radix := flag.Int("radix", 0, "force a fixed pass radix (2, 4 or 8; 0 = greedy radix-8)")
	verbose := flag.Bool("v", false, "print per-phase breakdown")
	jsonOut := flag.String("json", "", "write the per-phase record as JSON to this path")
	csvOut := flag.String("csv", "", "write the per-phase record as CSV to this path")
	timeline := flag.String("timeline", "", "write a phase-timeline SVG to this path")
	tracePath := flag.String("trace", "", "write a Chrome trace-event / Perfetto JSON trace to this path (detailed mode)")
	traceEpoch := flag.Uint64("trace-epoch", 256, "utilization sampling interval in cycles for -trace / -util-svg")
	utilSVG := flag.String("util-svg", "", "write an epoch-utilization heat-strip SVG to this path (detailed mode)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	serveObs := flag.String("serve-obs", "", "serve live observability (/metrics, /progress, /debug/pprof) on this address while the simulation runs, e.g. :9100")
	obsSnapshot := flag.String("obs-snapshot", "", "periodically write the OpenMetrics exposition to this path (atomic replace)")
	obsSnapshotEvery := flag.Duration("obs-snapshot-every", 10*time.Second, "interval between -obs-snapshot writes")
	obsEpoch := flag.Uint64("obs-epoch", 4096, "live-metrics sampling interval in simulated cycles for -serve-obs / -obs-snapshot")
	logLevel := flag.String("log-level", "info", "log verbosity on stderr: debug, info, warn or error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON lines instead of text")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the deterministic fault-injection streams")
	faultNoCDrop := flag.Float64("fault-noc-drop", 0, "per-packet NoC drop probability (recovered by retransmit)")
	faultNoCCorrupt := flag.Float64("fault-noc-corrupt", 0, "per-packet NoC corruption probability (detected by CRC, recovered by retransmit)")
	faultDRAMBER := flag.Float64("fault-dram-ber", 0, "per-line-fetch DRAM single-bit-error probability (corrected by SECDED ECC)")
	faultDRAMDBER := flag.Float64("fault-dram-dber", 0, "per-line-fetch DRAM double-bit-error probability (detected, not correctable)")
	faultNoECC := flag.Bool("fault-no-ecc", false, "disable the SECDED model: DRAM bit errors pass silently")
	faultKill := flag.Int("fault-kill-clusters", 0, "fail-stop this many clusters (chosen deterministically from -fault-seed)")
	watchdogWindow := flag.Uint64("watchdog-window", 0, "abort if no forward progress within this many simulated cycles (0 = off)")
	checkpointPath := flag.String("checkpoint", "", "write a resumable checkpoint to this path at phase boundaries (detailed fine-grained mode)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "phases between -checkpoint writes")
	resumePath := flag.String("resume", "", "resume from this checkpoint file (written by -checkpoint); unset flags adopt the checkpoint's values")
	flag.Parse()

	if err := validateFlags(cliFlags{
		n: *n, dims: *dims, radix: *radix, tcus: *tcus,
		model: *useModel, coarse: *coarse, tracePath: *tracePath, utilSVG: *utilSVG, traceEpoch: *traceEpoch,
		serveObs: *serveObs, obsSnapshot: *obsSnapshot,
		obsSnapshotEvery: *obsSnapshotEvery, obsEpoch: *obsEpoch,
		faultNoCDrop: *faultNoCDrop, faultNoCCorrupt: *faultNoCCorrupt,
		faultDRAMBER: *faultDRAMBER, faultDRAMDBER: *faultDRAMDBER,
		faultKill: *faultKill, watchdogWindow: *watchdogWindow,
		checkpoint: *checkpointPath, checkpointEvery: *checkpointEvery, resume: *resumePath,
	}); err != nil {
		usageError(err)
	}
	if _, err := harness.SetupLogger(*logLevel, *logJSON); err != nil {
		usageError(err)
	}

	// Runs last (deferred first): an interrupted run exits with code 3
	// after the other defers have flushed profiles and observability.
	exitCode := 0
	defer func() {
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()

	stopProfiles, err := harness.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
		if *memProfile != "" {
			fmt.Println("wrote", *memProfile)
		}
	}()

	cfg, err := config.ByName(*cfgName)
	if err != nil {
		fatal(err)
	}

	if *useModel {
		if *dims != 3 {
			fatal(fmt.Errorf("the analytic model covers 3D transforms"))
		}
		p, err := model.Project3D(cfg, *n)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("analytic projection: %s, %d^3 single-precision complex 3D FFT\n", cfg, *n)
		fmt.Printf("  time %.4g s  |  %.0f GFLOPS (5NlogN convention)\n", p.Overall.TimeSec, p.GFLOPS)
		for _, ph := range []model.PhasePoint{p.Stream, p.Rotation, p.Overall} {
			fmt.Printf("  %-12s %8.4g s  %9.0f GFLOPS actual  intensity %.3f FLOPs/B\n",
				ph.Name, ph.TimeSec, ph.ActualGFLOPS, ph.Intensity)
		}
		return
	}

	// Resume adopts the checkpoint's machine and workload parameters;
	// explicitly-set flags that contradict it are usage errors.
	set := setFlags()
	var resumed *ckpt.Checkpoint
	if *resumePath != "" {
		c, err := ckpt.Read(*resumePath)
		if err != nil {
			fatal(err)
		}
		if err := checkResumeConflicts(c.Meta, set, resumeView{
			cfgName: *cfgName, tcus: *tcus, n: *n, dims: *dims, radix: *radix, watchdogWindow: *watchdogWindow,
			faultSeed: *faultSeed, faultNoCDrop: *faultNoCDrop, faultNoCCorrupt: *faultNoCCorrupt,
			faultDRAMBER: *faultDRAMBER, faultDRAMDBER: *faultDRAMDBER,
			faultNoECC: *faultNoECC, faultKill: *faultKill,
		}); err != nil {
			usageError(err)
		}
		resumed = c
		*n, *dims, *radix = c.Meta.Dims[2], c.Meta.DimCount, c.Meta.Radix
		*watchdogWindow = c.Meta.WatchdogWindow
	}

	var (
		m    *xmt.Machine
		tr   *core.Transform
		plan fault.Plan
	)
	if resumed != nil {
		cfg = resumed.Meta.Config
		plan = resumed.Meta.Plan
		m, tr, err = resumed.Restore(*resumePath)
		if err != nil {
			fatal(err)
		}
		slog.Info("resumed from checkpoint", "path", *resumePath,
			"phase", fmt.Sprintf("%d/%d", resumed.Meta.PhasesDone, resumed.Meta.TotalPhases),
			"cycle", resumed.Meta.Cycle)
	} else {
		if *tcus != 0 {
			if cfg, err = cfg.Scaled(*tcus); err != nil {
				fatal(err)
			}
		}
		m, err = xmt.New(cfg)
		if err != nil {
			fatal(err)
		}
		plan = fault.Plan{
			Seed: *faultSeed, NoCDrop: *faultNoCDrop, NoCCorrupt: *faultNoCCorrupt,
			DRAMBitErr: *faultDRAMBER, DRAMDoubleBitErr: *faultDRAMDBER, NoECC: *faultNoECC,
		}
		if *faultKill > 0 {
			plan.KillClusters = fault.PickClusters(*faultSeed, *faultKill, cfg.Clusters)
		}
		if plan.Active() {
			if err := m.EnableFaults(plan); err != nil {
				fatal(err)
			}
		}
		if *watchdogWindow > 0 {
			m.SetWatchdog(*watchdogWindow)
		}
	}
	var obs *harness.Obs
	if *serveObs != "" || *obsSnapshot != "" {
		obs = harness.NewObs()
		obs.Epoch = *obsEpoch
		if *serveObs != "" {
			addr, err := obs.Serve(*serveObs)
			if err != nil {
				fatal(err)
			}
			slog.Info("observability server listening", "addr", addr,
				"endpoints", "/metrics /progress /debug/pprof/")
		}
		if *obsSnapshot != "" {
			obs.StartSnapshots(*obsSnapshot, *obsSnapshotEvery, func(err error) {
				slog.Warn("metrics snapshot failed", "err", err)
			})
		}
		obs.SetWork(1, 0)
		obs.Watch(m)
		defer obs.Close()
	}
	var rec *trace.Recorder
	if *tracePath != "" || *utilSVG != "" {
		rec = trace.NewRecorder(*traceEpoch)
		rec.Label = cfg.Name
		m.AttachRecorder(rec)
	}
	if tr == nil {
		switch *dims {
		case 1:
			tr, err = core.New1D(m, *n)
		case 2:
			tr, err = core.New2D(m, *n, *n)
		case 3:
			tr, err = core.New3D(m, *n, *n, *n)
		default:
			err = fmt.Errorf("dims must be 1, 2 or 3")
		}
		if err != nil {
			fatal(err)
		}
		if *radix != 0 {
			if err := tr.SetFixedRadix(*radix); err != nil {
				fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(1))
		for i := range tr.Data {
			tr.Data[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		}
	}

	// Checkpoint meta describes this run; it is also the post-mortem
	// header. On resume the original meta carries forward.
	meta := ckpt.Meta{
		Config:   cfg,
		DimCount: *dims, Dims: dimsOf(*dims, *n), Radix: *radix, Dir: int(fft.Forward),
		Plan: plan, WatchdogWindow: *watchdogWindow,
	}
	if resumed != nil {
		meta = resumed.Meta
	}
	if !*coarse {
		if meta.TotalPhases, err = tr.NumPhases(); err != nil {
			fatal(err)
		}
	}
	pmPath := "xmtfft.postmortem.ckpt"
	if *checkpointPath != "" {
		pmPath = *checkpointPath + ".postmortem"
	}
	installPostMortem(m, pmPath, &meta)
	stopped := notifyStop()

	before := m.Snapshot()
	var run stats.Run
	if *coarse {
		run, err = tr.RunCoarse(fft.Forward)
	} else {
		writeCkpt := func(done int, partial *stats.Run) error {
			meta.PhasesDone = done
			c, cerr := ckpt.Capture(m, tr, meta, tr.ResumeSnapshot(fft.Forward, done, *partial))
			if cerr != nil {
				return cerr
			}
			nbytes, cerr := ckpt.Write(*checkpointPath, c)
			if cerr != nil {
				return cerr
			}
			if obs != nil {
				obs.RecordCheckpoint(nbytes, c.Meta.Cycle)
			}
			slog.Info("checkpoint written", "path", *checkpointPath,
				"phase", fmt.Sprintf("%d/%d", done, meta.TotalPhases),
				"cycle", c.Meta.Cycle, "bytes", nbytes)
			return nil
		}
		ctl := core.RunControl{AfterPhase: func(done int, partial *stats.Run) error {
			stop := stopped.Load()
			if *checkpointPath != "" && done < meta.TotalPhases && (stop || done%*checkpointEvery == 0) {
				if cerr := writeCkpt(done, partial); cerr != nil {
					return cerr
				}
			}
			if stop {
				return harness.ErrInterrupted
			}
			return nil
		}}
		if resumed != nil {
			ctl.Resume = resumed.Workload
		}
		run, err = tr.RunCheckpointed(fft.Forward, ctl)
	}
	interrupted := errors.Is(err, harness.ErrInterrupted)
	if err != nil && !interrupted {
		fatal(err)
	}
	if obs != nil {
		m.FlushLiveMetrics()
		obs.AddWork(1)
	}
	util := m.UtilizationSince(before)
	cycles := run.TotalCycles()
	total := tr.N()
	fmt.Printf("detailed simulation: %s\n", cfg)
	if interrupted {
		fmt.Printf("  INTERRUPTED at phase %d/%d (totals below are partial)\n", len(run.Phases), meta.TotalPhases)
		if *checkpointPath != "" {
			fmt.Printf("  resume with: -resume %s\n", *checkpointPath)
		}
	}
	fmt.Printf("  %dD FFT, %d points: %d cycles (%.4g s at %.1f GHz)\n",
		*dims, total, cycles, stats.Seconds(cycles, config.ClockGHz), config.ClockGHz)
	fmt.Printf("  %.2f GFLOPS (5NlogN convention), %.2f GFLOPS actual\n",
		stats.StandardGFLOPS(total, cycles, config.ClockGHz), run.GFLOPS(config.ClockGHz))
	ops := run.TotalOps()
	fmt.Printf("  ops: %d flops, %d loads, %d stores, %d threads, cache hit rate %.1f%%, DRAM %d bytes\n",
		ops.FPOps, ops.Loads, ops.Stores, ops.Threads, ops.HitRate()*100, ops.DRAMBytes)
	fmt.Printf("  utilization: FPU %.0f%%, LSU %.0f%%, DRAM %.0f%%\n", util.FPU*100, util.LSU*100, util.DRAM*100)
	if !interrupted {
		// Bit-exact digest of the transform output; a resumed run must
		// reproduce the uninterrupted run's digest exactly.
		fmt.Printf("  output sha256: %x\n", outputDigest(tr.Data))
	}
	if plan.Active() {
		c := m.Counters
		fmt.Printf("  faults (seed %d): noc drops %d, corrupts %d, retransmits %d; ecc corrected %d, uncorrectable %d, silent %d\n",
			plan.Seed, c.NoCDropped, c.NoCCorrupted, c.NoCRetransmits,
			c.ECCCorrected, c.ECCUncorrectable, c.SilentFaults)
		if dead := m.DeadClusters(); len(dead) > 0 {
			fmt.Printf("  dead clusters: %v (threads remapped to the %d survivors)\n",
				dead, cfg.Clusters-len(dead))
		}
	}
	if *verbose {
		fmt.Print(run.String())
		if rec != nil {
			if err := rec.WriteSummary(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}
	writeFile := func(path string, f func(io.Writer) error) {
		if path == "" {
			return
		}
		if err := harness.WriteFileAtomic(path, f); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	}
	writeFile(*jsonOut, func(w io.Writer) error { return run.WriteJSON(w) })
	writeFile(*csvOut, func(w io.Writer) error { return run.WriteCSV(w) })
	writeFile(*timeline, func(w io.Writer) error { return viz.TimelineSVG(w, run) })
	if rec != nil {
		writeFile(*tracePath, func(w io.Writer) error { return rec.WritePerfetto(w) })
		writeFile(*utilSVG, func(w io.Writer) error {
			return viz.UtilizationSVG(w, cfg.Name, rec.Epoch, rec.Samples)
		})
	}
	if interrupted {
		exitCode = exitInterrupted
	}
}

// fatal reports a runtime failure through the structured logger (text
// or JSON per -log-json) and exits with status 1. Usage errors keep
// plain stderr output (usageError) because they can occur before the
// logger is configured.
func fatal(err error) {
	slog.Error("xmtfft failed", "err", err)
	os.Exit(1)
}

// usageError reports an invalid flag combination and exits with the
// conventional usage-error status 2.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "xmtfft:", err)
	fmt.Fprintln(os.Stderr, "run with -h for flag documentation")
	os.Exit(2)
}
