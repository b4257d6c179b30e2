// Command xmtbench runs the design-choice ablations of §IV-A on the
// detailed simulator and prints them as one table: radix (2/4/8),
// granularity (fine vs coarse), and the prefetcher enhancement.
//
// With -trace (and/or -util-svg) the baseline variant additionally
// records a cycle-level trace, exported in Chrome trace-event JSON /
// as a utilization heat strip.
//
// With -bench the ablations are skipped and the named benchmark suites
// run instead, into one perf record (-o): host (the FFTW-substitute host
// FFT, codelet-on/off pairs), sim (the simulator's wall-clock), obs
// (observability overhead and the zero-alloc metric hot path), fault
// (resilience overhead against fault rate) and serve (the transform
// service's latency and throughput). -tcus and -n size the simulated
// suites and the host suite's n³ pairs, -reps repeats every timed
// measurement, and -fft-gate turns the host suite's 1D codelet speedups
// into a CI perf ratchet.
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
//	xmtbench -bench host -n 256 -o BENCH_fft.json
//	xmtbench -bench host -fft-gate 1.2      # codelet perf ratchet
//	xmtbench -bench sim,obs -reps 7 -o -    # record on stdout
//	xmtbench -bench fault -fault-seed 99 -tcus 256 -n 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"xmtfft/internal/ckpt"
	"xmtfft/internal/harness"
	"xmtfft/internal/viz"
)

func main() {
	tcus := flag.Int("tcus", 1024, "machine size in TCUs (scaled 4k configuration) of the ablations and the sim, obs and fault suites")
	n := flag.Int("n", 32, "points per dimension (power of two >= 2) of the ablations' FFT, the sim, obs and fault suites' FFT and the host suite's 3D pairs")
	bench := flag.String("bench", "", "run these benchmark suites instead of the ablations: comma-separated host, sim, obs, fault, serve")
	out := flag.String("o", "", "with -bench: write the perf record as JSON to this path ('-' for stdout)")
	reps := flag.Int("reps", 3, "with -bench: repetitions of every timed measurement (median and quartiles kept)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	tracePath := flag.String("trace", "", "write a Chrome trace-event / Perfetto JSON trace of the baseline variant to this path")
	traceEpoch := flag.Uint64("trace-epoch", 256, "utilization sampling interval in cycles for -trace / -util-svg")
	utilSVG := flag.String("util-svg", "", "write an epoch-utilization heat-strip SVG of the baseline variant to this path")
	fftGate := flag.Float64("fft-gate", 0, "with -bench host: exit non-zero when any serial 1D codelet-on/off speedup (of medians) falls below this ratio (0 disables the gate)")
	faultSeed := flag.Uint64("fault-seed", 1, "with -bench fault: seed of the deterministic fault-injection streams")
	serveObs := flag.String("serve-obs", "", "serve live observability (/metrics, /progress, /debug/pprof) on this address during the ablation run, e.g. :9100")
	obsSnapshot := flag.String("obs-snapshot", "", "periodically write the OpenMetrics exposition to this path (atomic replace)")
	obsSnapshotEvery := flag.Duration("obs-snapshot-every", 10*time.Second, "interval between -obs-snapshot writes")
	obsEpoch := flag.Uint64("obs-epoch", 4096, "live-metrics sampling interval in simulated cycles for -serve-obs / -obs-snapshot")
	logLevel := flag.String("log-level", "info", "log verbosity on stderr: debug, info, warn or error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON lines instead of text")
	checkpointPath := flag.String("checkpoint", "", "write a resumable sweep checkpoint to this path at variant boundaries (ablation mode)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "variants between -checkpoint writes")
	resumePath := flag.String("resume", "", "resume an ablation sweep from this checkpoint file; unset flags adopt the checkpoint's values")
	flag.Parse()

	if err := validateFlags(cliFlags{
		tcus: *tcus, n: *n, reps: *reps,
		tracePath: *tracePath, utilSVG: *utilSVG, traceEpoch: *traceEpoch,
		bench: *bench, out: *out, fftGate: *fftGate,
		serveObs: *serveObs, obsSnapshot: *obsSnapshot,
		obsSnapshotEvery: *obsSnapshotEvery, obsEpoch: *obsEpoch,
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

	if *bench != "" {
		settings := harness.BenchSettings{TCUs: *tcus, N: *n, Reps: *reps, FaultSeed: *faultSeed}
		if err := runBench(strings.Split(*bench, ","), settings, *out, *fftGate); err != nil {
			fatal(err)
		}
		return
	}

	obs, err := harness.StartObs(*serveObs, *obsSnapshot, *obsSnapshotEvery, *obsEpoch)
	if err != nil {
		fatal(err)
	}
	if obs != nil {
		defer obs.Close()
	}

	epoch := uint64(0)
	if *tracePath != "" || *utilSVG != "" {
		epoch = *traceEpoch
	}

	// Resume adopts the checkpoint's sweep parameters; explicitly-set
	// flags that contradict it are caught by the harness.
	set := harness.SetFlags()
	var ck *harness.AblationCkpt
	stopped := harness.NotifyStop()
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
		exitCode = harness.ExitInterrupted
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

// runBench runs the suites, prints every case's median and quartiles,
// writes the record to stdout ("-") or atomically to a file (so an
// interrupted run never truncates a previous artifact), and then, when
// gate > 0, applies the codelet ratchet.
func runBench(suites []string, settings harness.BenchSettings, out string, gate float64) error {
	rec, err := harness.RunBench(suites, settings)
	if err != nil {
		return err
	}
	if out == "-" {
		err = rec.Write(os.Stdout)
	} else {
		for _, c := range rec.Cases {
			fmt.Printf("%-5s %-34s %-21s %12.6g [%.6g, %.6g] %s\n",
				c.Suite, c.Name, c.Metric, c.Median, c.Q1, c.Q3, c.Unit)
		}
		if out != "" {
			if err = harness.WriteFileAtomic(out, rec.Write); err == nil {
				fmt.Println("wrote", out)
			}
		}
	}
	if err != nil || gate <= 0 {
		return err
	}
	worst, n, err := rec.CodeletGate(gate)
	if err != nil {
		return fmt.Errorf("-fft-gate: %w", err)
	}
	fmt.Fprintf(os.Stderr, "fft-gate ok: %.2fx >= %.2fx (worst at 1d n=%d)\n", worst, gate, n)
	return nil
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
