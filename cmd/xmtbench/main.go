// Command xmtbench runs the design-choice ablations of §IV-A on the
// detailed simulator and prints them as one table: radix (2/4/8),
// granularity (fine vs coarse), and the prefetcher enhancement.
//
// With -trace (and/or -util-svg) the baseline variant additionally
// records a cycle-level trace, exported in Chrome trace-event JSON /
// as a utilization heat strip.
//
// With -host-bench the simulator ablations are skipped and the host
// FFT (the FFTW-substitute baseline) is measured instead: serial 1D
// codelet-on/off pairs over the generated-kernel range, then n³ 3D
// transforms with codelets on and off, serial and parallel, written as
// a BENCH_fft.json perf record. -fft-gate turns the 1D codelet speedups
// into a CI perf ratchet.
//
// With -sim-bench the simulator itself is measured on the FFT
// workload, and the wall-clock result is written as a BENCH_sim.json
// perf record.
//
// With -obs-bench the observability layer itself is measured: the same
// workload with observability off, with engine telemetry, and with the
// full live-metrics surface, written as a BENCH_obs.json perf record
// that also carries the metric-primitive microbenchmarks (the
// zero-alloc hot-path contract).
//
// With -serve-obs the ablation run additionally serves live
// observability — /metrics (OpenMetrics), /progress (JSON with
// events/sec and an ETA) and /debug/pprof/* — so a long detailed run
// can be watched in flight.
//
// Usage:
//
//	xmtbench                  # defaults: 4k scaled to 1024 TCUs, 32^3
//	xmtbench -tcus 512 -n 16  # small size (the CI smoke path)
//	xmtbench -serve-obs :9100 # watch the run: curl :9100/metrics
//	xmtbench -trace /tmp/bench.json -util-svg /tmp/bench.svg
//	xmtbench -host-bench BENCH_fft.json -host-n 128,256
//	xmtbench -host-bench BENCH_fft.json -fft-gate 1.2  # codelet perf ratchet
//	xmtbench -sim-bench BENCH_sim.json
//	xmtbench -fault-bench BENCH_fault.json -fault-rates 0.005,0.02,0.05
//	xmtbench -obs-bench BENCH_obs.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"xmtfft/internal/baseline"
	"xmtfft/internal/ckpt"
	"xmtfft/internal/harness"
	"xmtfft/internal/viz"
)

func main() {
	tcus := flag.Int("tcus", 1024, "machine size in TCUs (scaled 4k configuration)")
	n := flag.Int("n", 32, "points per dimension (power of two)")
	simBench := flag.String("sim-bench", "", "measure the simulator on the FFT workload and write a BENCH_sim.json perf record to this path ('-' for stdout)")
	simReps := flag.Int("sim-reps", 3, "repetitions for -sim-bench and for each -obs-bench mode (best run kept)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	tracePath := flag.String("trace", "", "write a Chrome trace-event / Perfetto JSON trace of the baseline variant to this path")
	traceEpoch := flag.Uint64("trace-epoch", 256, "utilization sampling interval in cycles for -trace / -util-svg")
	utilSVG := flag.String("util-svg", "", "write an epoch-utilization heat-strip SVG of the baseline variant to this path")
	hostBench := flag.String("host-bench", "", "measure the host FFT (1D and 3D, codelets on vs off) and write a BENCH_fft.json perf record to this path ('-' for stdout)")
	hostSizes := flag.String("host-n", "128,256", "comma-separated per-dimension sizes for -host-bench")
	hostWorkers := flag.Int("host-workers", 0, "parallel worker count for -host-bench (0 = GOMAXPROCS)")
	hostReps := flag.Int("host-reps", 1, "repetitions per -host-bench point (best run kept)")
	fftGate := flag.Float64("fft-gate", 0, "with -host-bench: exit non-zero when any serial 1D codelet-on/off speedup falls below this ratio (0 disables the gate)")
	faultBench := flag.String("fault-bench", "", "measure resilience overhead (cycles/GFLOPS vs fault rate) on the FFT workload and write a BENCH_fault.json perf record to this path ('-' for stdout)")
	faultRates := flag.String("fault-rates", "0.005,0.02,0.05", "comma-separated fault rates for -fault-bench (rate 0 baseline is always included)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the deterministic fault-injection streams of -fault-bench")
	serveObs := flag.String("serve-obs", "", "serve live observability (/metrics, /progress, /debug/pprof) on this address during the ablation run, e.g. :9100")
	obsSnapshot := flag.String("obs-snapshot", "", "periodically write the OpenMetrics exposition to this path (atomic replace)")
	obsSnapshotEvery := flag.Duration("obs-snapshot-every", 10*time.Second, "interval between -obs-snapshot writes")
	obsEpoch := flag.Uint64("obs-epoch", 4096, "live-metrics sampling interval in simulated cycles for -serve-obs / -obs-snapshot")
	obsBench := flag.String("obs-bench", "", "measure observability overhead (off vs telemetry vs live) and write a BENCH_obs.json perf record to this path ('-' for stdout)")
	logLevel := flag.String("log-level", "info", "log verbosity on stderr: debug, info, warn or error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON lines instead of text")
	checkpointPath := flag.String("checkpoint", "", "write a resumable sweep checkpoint to this path at variant boundaries (ablation mode)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "variants between -checkpoint writes")
	resumePath := flag.String("resume", "", "resume an ablation sweep from this checkpoint file; unset flags adopt the checkpoint's values")
	flag.Parse()

	if err := validateFlags(cliFlags{
		tcus: *tcus, n: *n, simReps: *simReps,
		hostWorkers: *hostWorkers, hostReps: *hostReps,
		tracePath: *tracePath, utilSVG: *utilSVG, traceEpoch: *traceEpoch,
		simBench:  *simBench,
		hostBench: *hostBench, hostSizes: *hostSizes, fftGate: *fftGate,
		faultBench: *faultBench, faultRates: *faultRates,
		serveObs: *serveObs, obsSnapshot: *obsSnapshot,
		obsSnapshotEvery: *obsSnapshotEvery, obsEpoch: *obsEpoch,
		obsBench:   *obsBench,
		checkpoint: *checkpointPath, checkpointEvery: *checkpointEvery, resume: *resumePath,
	}); err != nil {
		usageError(err)
	}
	if _, err := harness.SetupLogger(*logLevel, *logJSON); err != nil {
		usageError(err)
	}

	// Runs last (deferred first): an interrupted sweep exits with code 3
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

	if *hostBench != "" {
		if err := runHostBench(*hostBench, *hostSizes, *hostWorkers, *hostReps, *fftGate); err != nil {
			fatal(err)
		}
		return
	}
	if *simBench != "" {
		if err := runSimBench(*simBench, *tcus, *n, *simReps); err != nil {
			fatal(err)
		}
		return
	}
	if *faultBench != "" {
		if err := runFaultBench(*faultBench, *faultRates, *tcus, *n, *faultSeed); err != nil {
			fatal(err)
		}
		return
	}
	if *obsBench != "" {
		if err := runObsBench(*obsBench, *tcus, *n, *simReps); err != nil {
			fatal(err)
		}
		return
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
		defer obs.Close()
	}

	epoch := uint64(0)
	if *tracePath != "" || *utilSVG != "" {
		epoch = *traceEpoch
	}

	// Resume adopts the checkpoint's sweep parameters; explicitly-set
	// flags that contradict it are caught by the harness.
	set := setFlags()
	var ck *harness.AblationCkpt
	stopped := notifyStop()
	if *checkpointPath != "" || *resumePath != "" {
		ck = &harness.AblationCkpt{
			Path:  *checkpointPath,
			Every: *checkpointEvery,
			Stop:  stopped.Load,
			Obs:   obs,
		}
		if *resumePath != "" {
			c, err := ckpt.Read(*resumePath)
			if err != nil {
				fatal(err)
			}
			ck.Resume = c
			if !set["tcus"] {
				*tcus = c.Meta.Config.TCUs
			}
			if !set["n"] {
				*n = c.Meta.Dims[2]
			}
			slog.Info("resuming ablation sweep", "path", *resumePath,
				"variants_done", c.Meta.Stage)
		}
	}
	rec, err := harness.AblationReport(os.Stdout, *tcus, *n, harness.AblationOptions{
		Epoch: epoch, Obs: obs, Ckpt: ck,
	})
	interrupted := errors.Is(err, harness.ErrInterrupted)
	if err != nil && !interrupted {
		fatal(err)
	}
	if interrupted {
		exitCode = exitInterrupted
		if *checkpointPath != "" {
			fmt.Printf("interrupted; resume with -resume %s\n", *checkpointPath)
		} else {
			fmt.Println("interrupted")
		}
		return
	}
	if rec == nil {
		return
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
	writeFile(*tracePath, func(w io.Writer) error { return rec.WritePerfetto(w) })
	writeFile(*utilSVG, func(w io.Writer) error {
		return viz.UtilizationSVG(w, rec.Label, rec.Epoch, rec.Samples)
	})
}

// writeRecord emits a benchmark record to stdout ("-") or atomically to
// a file, so an interrupted run never truncates a previous artifact.
func writeRecord(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	if err := harness.WriteFileAtomic(path, write); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// runHostBench measures the host FFT, writes the perf record, and (when
// gate > 0) fails if any serial 1D codelet-on/off speedup falls below
// the gate — a CI perf ratchet.
func runHostBench(path, sizeList string, workers, reps int, gate float64) error {
	sizes, err := parseIntList("-host-n", sizeList)
	if err != nil {
		return err
	}
	rec, err := baseline.RunHostBench(sizes, workers, reps)
	if err != nil {
		return err
	}
	for _, r := range rec.Results {
		fmt.Printf("%-44s %12v  %7.3f GFLOPS\n", r.Label, r.Elapsed, r.GFLOPS)
	}
	for _, n := range baseline.HostBench1DSizes {
		if sp := rec.CodeletSpeedup1D(n); sp > 0 {
			fmt.Printf("1d n=%-5d serial codelet speedup: %.2fx\n", n, sp)
		}
	}
	for _, n := range sizes {
		if sp := rec.CodeletSpeedup3D(n, 1); sp > 0 {
			fmt.Printf("%d^3 serial codelet speedup: %.2fx\n", n, sp)
		}
	}
	if err := writeRecord(path, rec.Write); err != nil {
		return err
	}
	if gate > 0 {
		worst, worstN := 0.0, 0
		for _, n := range baseline.HostBench1DSizes {
			sp := rec.CodeletSpeedup1D(n)
			if sp == 0 {
				return fmt.Errorf("-fft-gate %.2f: no codelet-on/off pair for 1d n=%d; gate cannot be evaluated", gate, n)
			}
			if worst == 0 || sp < worst {
				worst, worstN = sp, n
			}
		}
		if worst < gate {
			return fmt.Errorf("-fft-gate %.2f not met: 1d n=%d codelet speedup is %.2fx", gate, worstN, worst)
		}
		fmt.Printf("fft-gate ok: %.2fx >= %.2fx (worst at n=%d)\n", worst, gate, worstN)
	}
	return nil
}

// runSimBench measures the simulator and writes BENCH_sim.json.
func runSimBench(path string, tcus, n, reps int) error {
	rec, err := harness.RunSimBench(tcus, n, nil, reps)
	if err != nil {
		return err
	}
	for _, r := range rec.Results {
		fmt.Printf("%10.4fs  %12d cycles  %9.0f useful-events/s  (%d engine events)\n",
			r.ElapsedSec, r.Cycles, r.UsefulEventsPerSec, r.Events)
	}
	return writeRecord(path, rec.Write)
}

// runObsBench measures observability overhead and writes BENCH_obs.json.
func runObsBench(path string, tcus, n, reps int) error {
	rec, err := harness.RunObsBench(tcus, n, reps)
	if err != nil {
		return err
	}
	for _, r := range rec.Results {
		fmt.Printf("%-10s %10.4fs  %12d cycles  %9.0f events/s  %+6.2f%%\n",
			r.Mode, r.ElapsedSec, r.Cycles, r.EventsPerSec, r.OverheadPct)
	}
	hp := rec.HotPath
	fmt.Printf("hot path: counter add %.1f ns (%.0f allocs), gauge set %.1f ns (%.0f allocs), histogram observe %.1f ns (%.0f allocs), encode %.0f ns\n",
		hp.CounterAddNs, hp.CounterAddAllocs, hp.GaugeSetNs, hp.GaugeSetAllocs,
		hp.HistogramObserveNs, hp.HistObserveAllocs, hp.EncodeNs)
	if rec.Note != "" {
		fmt.Println("note:", rec.Note)
	}
	return writeRecord(path, rec.Write)
}

// runFaultBench measures resilience overhead and writes BENCH_fault.json.
func runFaultBench(path, rateList string, tcus, n int, seed uint64) error {
	rates, err := parseRateList("-fault-rates", rateList)
	if err != nil {
		return err
	}
	rec, err := harness.RunFaultBench(tcus, n, seed, rates)
	if err != nil {
		return err
	}
	for _, r := range rec.Results {
		fmt.Printf("rate %-7g %12d cycles  %7.2f GFLOPS  +%5.1f%%  retransmits %d  ecc corrected %d\n",
			r.Rate, r.Cycles, r.GFLOPS, r.CyclesOverhead*100, r.NoCRetransmits, r.ECCCorrected)
	}
	if rec.Note != "" {
		fmt.Println("note:", rec.Note)
	}
	return writeRecord(path, rec.Write)
}

// fatal reports a runtime failure through the structured logger (text
// or JSON per -log-json) and exits with status 1. Usage errors keep
// plain stderr output (usageError) because they can occur before the
// logger is configured.
func fatal(err error) {
	slog.Error("xmtbench failed", "err", err)
	os.Exit(1)
}

// usageError reports an invalid flag combination and exits with the
// conventional usage-error status 2.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "xmtbench:", err)
	fmt.Fprintln(os.Stderr, "run with -h for flag documentation")
	os.Exit(2)
}
