// Package harness renders the reproduction of every table and figure in
// the paper's evaluation as text, one function per artifact, shared by
// cmd/tables, cmd/roofline and the benchmark suite. Each renderer
// prints the same rows the paper reports, with the published value
// alongside the reproduced one where applicable.
package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"text/tabwriter"

	"xmtfft/internal/baseline"
	"xmtfft/internal/ckpt"
	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/model"
	"xmtfft/internal/stats"
	"xmtfft/internal/tech"
	"xmtfft/internal/trace"
	"xmtfft/internal/xmt"
)

func tw(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// TableI writes the historical XMT speedup survey (Table I).
func TableI(w io.Writer) error {
	t := tw(w)
	fmt.Fprintln(t, "TABLE I: XMT SPEEDUPS (published survey)")
	fmt.Fprintln(t, "Algorithm\tXMT\tGPU/CPU\tFactor")
	for _, r := range baseline.TableI() {
		fmt.Fprintf(t, "%s\t%s\t%s\t%s\n", r.Algorithm, r.XMT, r.Other, r.Factor)
	}
	return t.Flush()
}

// TableII writes the architecture configuration table.
func TableII(w io.Writer) error {
	cfgs := config.Paper()
	t := tw(w)
	fmt.Fprintln(t, "TABLE II: XMT ARCHITECTURE CONFIGURATIONS")
	header := "\t"
	for _, c := range cfgs {
		header += c.Name + "\t"
	}
	fmt.Fprintln(t, header)
	row := func(name string, get func(config.Config) int) {
		s := name + "\t"
		for _, c := range cfgs {
			s += fmt.Sprintf("%d\t", get(c))
		}
		fmt.Fprintln(t, s)
	}
	row("TCUs", func(c config.Config) int { return c.TCUs })
	row("Clusters", func(c config.Config) int { return c.Clusters })
	row("Memory Modules", func(c config.Config) int { return c.MemModules })
	row("NoC MoT Levels", func(c config.Config) int { return c.MoTLevels })
	row("NoC Butterfly Levels", func(c config.Config) int { return c.ButterflyLevels })
	row("MMs per DRAM Ctrl.", func(c config.Config) int { return c.MMsPerDRAMCtrl })
	row("FPUs per Cluster", func(c config.Config) int { return c.FPUsPerCluster })
	row("TCUs per Cluster", func(c config.Config) int { return c.TCUsPerCluster })
	row("ALUs per Cluster", func(c config.Config) int { return c.ALUsPerCluster })
	row("MDUs per Cluster", func(c config.Config) int { return c.MDUsPerCluster })
	row("LSUs per Cluster", func(c config.Config) int { return c.LSUsPerCluster })
	return t.Flush()
}

// TableIII writes the physical configuration table.
func TableIII(w io.Writer) error {
	cfgs := config.Paper()
	t := tw(w)
	fmt.Fprintln(t, "TABLE III: XMT PHYSICAL CONFIGURATIONS")
	header := "\t"
	for _, c := range cfgs {
		header += c.Name + "\t"
	}
	fmt.Fprintln(t, header)
	fmt.Fprint(t, "Technology Node (nm)\t")
	for _, c := range cfgs {
		fmt.Fprintf(t, "%d\t", c.TechnologyNm)
	}
	fmt.Fprint(t, "\nSilicon (Si) Layers\t")
	for _, c := range cfgs {
		fmt.Fprintf(t, "%d\t", c.SiliconLayers)
	}
	fmt.Fprint(t, "\nSi Area per Layer (mm2)\t")
	for _, c := range cfgs {
		fmt.Fprintf(t, "%.0f\t", c.SiAreaPerLayer)
	}
	fmt.Fprint(t, "\nTotal Si Area (mm2)\t")
	for _, c := range cfgs {
		fmt.Fprintf(t, "%.0f\t", c.TotalSiAreaMM2())
	}
	fmt.Fprintln(t)
	return t.Flush()
}

// TableIV writes the modeled FFT performance beside the published
// figures.
func TableIV(w io.Writer) error {
	projs, err := model.TableIV()
	if err != nil {
		return err
	}
	t := tw(w)
	fmt.Fprintln(t, "TABLE IV: FFT PERFORMANCE ON XMT (512^3 single-precision complex 3D FFT)")
	fmt.Fprintln(t, "Configuration\tGFLOPS (this repo)\tGFLOPS (paper)\tdeviation")
	for _, p := range projs {
		paper := model.PaperTableIV[p.Cfg.Name]
		fmt.Fprintf(t, "%s\t%.0f\t%.0f\t%+.1f%%\n", p.Cfg.Name, p.GFLOPS, paper, (p.GFLOPS-paper)/paper*100)
	}
	return t.Flush()
}

// TableV writes the speedup table beside the published figures.
func TableV(w io.Writer) error {
	rows, err := model.TableV()
	if err != nil {
		return err
	}
	t := tw(w)
	fmt.Fprintln(t, "TABLE V: SPEEDUPS RELATIVE TO FFTW")
	fmt.Fprintln(t, "Configuration\tvs serial\t(paper)\tvs 32 threads\t(paper)")
	for _, r := range rows {
		fmt.Fprintf(t, "%s\t%.0fX\t%.0fX\t%.1fX\t%.1fX\n",
			r.Cfg.Name, r.VsSerialFFTW, r.PaperVsSerial, r.VsParallelFFTW, r.PaperVsParallel)
	}
	fmt.Fprintf(t, "(FFTW baselines: %.2f GFLOPS serial, %.1f GFLOPS 32-thread, published)\n",
		baseline.FFTWSerialGFLOPS, baseline.FFTWParallelGFLOPS)
	return t.Flush()
}

// TableVI writes the Edison comparison.
func TableVI(w io.Writer) error {
	c, err := model.TableVI()
	if err != nil {
		return err
	}
	e := c.Edison
	t := tw(w)
	fmt.Fprintln(t, "TABLE VI: COMPARISON OF EDISON MACHINE (CRAY XC30) TO XMT")
	fmt.Fprintln(t, "\tEdison\tXMT (128k x4)")
	fmt.Fprintf(t, "# processing elements\t%d cores\t%d TCUs\n", e.Cores, c.XMTProcessors)
	fmt.Fprintf(t, "# processor groups\t%d nodes\t%d clusters\n", e.Nodes, c.XMTGroups)
	fmt.Fprintf(t, "Total cache memory\t%d MB\t%.0f MB\n", e.TotalCacheMB, c.XMTCacheMB)
	fmt.Fprintf(t, "# chips\t%d CPU + %d router\t%d\n", e.CPUChips, e.RouterChips, c.XMTChips)
	fmt.Fprintf(t, "Total silicon area (process)\t%.0f cm2 (22 nm) + %.0f cm2 (40 nm)\t%.1f cm2 (14 nm)\n",
		e.SiliconCM2at22nm, e.SiliconCM2at40nm, c.XMTSiliconCM2)
	fmt.Fprintf(t, "Normalized silicon area (22 nm)\t%.0f cm2\t%.0f cm2\n", e.NormalizedCM2, c.XMTNormalizedCM2)
	fmt.Fprintf(t, "Peak power consumption\t%.0f KW\t%.1f KW\n", e.PeakPowerKW, c.XMTPeakPowerKW)
	fmt.Fprintf(t, "Peak teraFLOPS\t%.0f\t%.0f\n", e.PeakTFLOPS, c.XMTPeakTFLOPS)
	fmt.Fprintf(t, "TeraFLOPS for FFT (size)\t%.1f (%d^3)\t%.1f (512^3)\n", e.FFTTFLOPS, e.FFTInputSize, c.XMTFFTTFLOPS)
	fmt.Fprintf(t, "%% of peak FLOPS\t%.2f%%\t%.0f%%\n", e.PercentOfPeak(), c.XMTPercentOfPeak)
	fmt.Fprintf(t, "\nXMT/Edison FFT ratio %.2fX using 1/%.0f the silicon and 1/%.0f the power (paper: 1.4X, 870x, 375x)\n",
		c.SpeedupRatio, c.SiliconRatio, c.PowerRatio)
	return t.Flush()
}

// SiliconComparison writes the §VI-A silicon-normalized comparison.
func SiliconComparison(w io.Writer) error {
	s, err := model.SiliconVsXeon()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Silicon comparison (§VI-A): 4k XMT %.0f mm2 vs E5-2690 %.0f mm2 at 22 nm:\n",
		s.XMTAreaMM2, s.XeonAreaMM2At22)
	fmt.Fprintf(w, "  %.2fx one socket, %.0f%% of a dual-socket system, while %.1fX faster than 32-thread FFTW\n",
		s.AreaVsOneSocket, s.AreaVsTwoSockets*100, s.SpeedupVs32Thread)
	return nil
}

// Fig3 writes the Roofline figure data: for each configuration the roof
// (peak compute and bandwidth slope) and the three empirical markers
// (rotation, non-rotation, overall).
func Fig3(w io.Writer) error {
	projs, err := model.TableIV()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FIG. 3: ROOFLINE MODEL OF EACH XMT CONFIGURATION (values in GFLOPS, actual-FLOP convention)")
	for _, p := range projs {
		roof := model.RooflineOf(p.Cfg)
		fmt.Fprintf(w, "\n%s: peak %.0f GFLOPS, peak DRAM %.0f GB/s, ridge %.2f FLOPs/byte\n",
			p.Cfg.Name, roof.PeakGFLOPS, roof.PeakGBs, roof.Ridge)
		fmt.Fprintf(w, "  roofline: ")
		for _, x := range []float64{0.125, 0.25, 0.5, 1, 2, 4, 8} {
			fmt.Fprintf(w, "(%.3g, %.3g) ", x, roof.Bound(x))
		}
		fmt.Fprintln(w)
		for _, ph := range []model.PhasePoint{p.Rotation, p.Overall, p.Stream} {
			fmt.Fprintf(w, "  %-12s intensity %.3f FLOPs/B  %8.0f GFLOPS  (%.0f%% of roof)  time %.4g s\n",
				ph.Name, ph.Intensity, ph.ActualGFLOPS,
				100*ph.ActualGFLOPS/roof.Bound(ph.Intensity), ph.TimeSec)
		}
	}
	return nil
}

// Fig3CSV writes the same data as CSV for external plotting.
func Fig3CSV(w io.Writer) error {
	projs, err := model.TableIV()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "config,series,intensity_flops_per_byte,gflops")
	for _, p := range projs {
		roof := model.RooflineOf(p.Cfg)
		for _, x := range []float64{0.0625, 0.125, 0.25, 0.5, 1, 2, 4, 8, 16} {
			fmt.Fprintf(w, "%q,roofline,%g,%g\n", p.Cfg.Name, x, roof.Bound(x))
		}
		for _, ph := range []model.PhasePoint{p.Rotation, p.Overall, p.Stream} {
			fmt.Fprintf(w, "%q,%s,%g,%g\n", p.Cfg.Name, ph.Name, ph.Intensity, ph.ActualGFLOPS)
		}
	}
	return nil
}

// All writes every table and figure.
func All(w io.Writer) error {
	steps := []func(io.Writer) error{
		TableI, TableII, TableIII, TableIV, TableV, TableVI, SiliconComparison, TechReport, ScalingReport, WeakScalingReport, PriorWorkComparison, Fig3,
	}
	for i, f := range steps {
		if i > 0 {
			fmt.Fprintln(w, strings.Repeat("-", 72))
		}
		if err := f(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// TechReport writes the §V enabling-technology feasibility analysis for
// every configuration: off-chip bandwidth, package pins, photonics,
// cooling, TSVs and NoC silicon area.
func TechReport(w io.Writer) error {
	fmt.Fprintln(w, "ENABLING-TECHNOLOGY FEASIBILITY (§V analysis)")
	for _, c := range config.Paper() {
		fmt.Fprintln(w)
		fmt.Fprint(w, tech.Analyze(c))
	}
	return nil
}

// ScalingReport writes the size-scaling and strong-scaling studies that
// extend the paper's single-point evaluation: GFLOPS and binding
// resource across input sizes per configuration, and fixed-512³
// speedups across configurations.
func ScalingReport(w io.Writer) error {
	sizes := []int{64, 128, 256, 512, 1024}
	t := tw(w)
	fmt.Fprintln(t, "SIZE SCALING (modeled GFLOPS, 5NlogN convention; binding resource in parentheses)")
	header := "n^3\t"
	for _, c := range config.Paper() {
		header += c.Name + "\t"
	}
	fmt.Fprintln(t, header)
	for _, n := range sizes {
		row := fmt.Sprintf("%d\t", n)
		for _, c := range config.Paper() {
			p, err := model.Project3D(c, n)
			if err != nil {
				return err
			}
			row += fmt.Sprintf("%.0f (%s)\t", p.GFLOPS, p.Binding)
		}
		fmt.Fprintln(t, row)
	}
	if err := t.Flush(); err != nil {
		return err
	}

	pts, err := model.StrongScaling(model.PaperN)
	if err != nil {
		return err
	}
	t = tw(w)
	fmt.Fprintln(t, "\nSTRONG SCALING AT 512^3 (speedup over the 4k configuration)")
	fmt.Fprintln(t, "Configuration\tTCUs\tspeedup\tbinding")
	for _, p := range pts {
		fmt.Fprintf(t, "%s\t%d\t%.1fx\t%s\n", p.Cfg.Name, p.Cfg.TCUs, p.Speedup, p.Binding)
	}
	return t.Flush()
}

// WeakScalingReport writes the weak-scaling study (working set grows
// with TCU count, the reporting convention of the MPI studies §I-A
// surveys).
func WeakScalingReport(w io.Writer) error {
	pts, err := model.WeakScaling(256)
	if err != nil {
		return err
	}
	t := tw(w)
	fmt.Fprintln(t, "WEAK SCALING (work grows with TCUs; base 256^3 on 4k)")
	fmt.Fprintln(t, "Configuration\tarray\tGFLOPS\ttime\tefficiency")
	for _, p := range pts {
		fmt.Fprintf(t, "%s\t%dx%dx%d\t%.0f\t%.4gs\t%.2f\n",
			p.Cfg.Name, p.Dims[0], p.Dims[1], p.Dims[2], p.GFLOPS, p.Overall.TimeSec, p.Efficiency)
	}
	return t.Flush()
}

// Fig3Detailed runs the detailed event simulator on a scaled-down
// machine and prints the same Roofline markers as Fig. 3, measured
// rather than modeled — the cross-validation artifact. tcus selects the
// scaled machine size and n the (small) cube size.
func Fig3Detailed(w io.Writer, base config.Config, tcus, n int) error {
	cfg, err := base.Scaled(tcus)
	if err != nil {
		return err
	}
	fr, err := simulateFFT(cfg, n, nil)
	if err != nil {
		return err
	}
	run := fr.run
	roof := model.RooflineOf(cfg)
	fmt.Fprintf(w, "DETAILED-SIM ROOFLINE: %s, %d^3 FFT (%d cycles)\n", cfg, n, run.TotalCycles())
	fmt.Fprintf(w, "  roof: peak %.1f GFLOPS, DRAM %.1f GB/s, ridge %.2f\n",
		roof.PeakGFLOPS, roof.PeakGBs, roof.Ridge)
	phases := []stats.Phase{
		run.Merged("rotation", func(p stats.Phase) bool { return strings.HasPrefix(p.Name, "rotate") }),
		run.Merged("non-rotation", func(p stats.Phase) bool {
			return strings.HasPrefix(p.Name, "fft") || strings.HasPrefix(p.Name, "twiddle")
		}),
		run.Overall(),
	}
	for _, ph := range phases {
		gf := ph.GFLOPS(config.ClockGHz)
		fmt.Fprintf(w, "  %-12s intensity %.3f FLOPs/B  %7.2f GFLOPS actual",
			ph.Name, ph.Intensity(), gf)
		if b := roof.Bound(ph.Intensity()); b > 0 && ph.Ops.DRAMBytes > 0 {
			fmt.Fprintf(w, "  (%.0f%% of roof)", 100*gf/b)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// PriorWorkComparison writes the §I-A prior-work survey next to this
// repository's projections, reproducing the paper's framing: the
// largest XMT configuration exceeds published GPU results by orders of
// magnitude and the large MPI clusters at a fraction of their hardware.
func PriorWorkComparison(w io.Writer) error {
	t := tw(w)
	fmt.Fprintln(t, "PRIOR WORK ON FFT (§I-A survey, published) VS XMT PROJECTIONS")
	fmt.Fprintln(t, "System\tKind\tGFLOPS\tProblem\tReference")
	for _, r := range baseline.PriorWork() {
		fmt.Fprintf(t, "%s\t%s\t%.0f\t%s\t%s\n", r.System, r.Kind, r.GFLOPS, r.Problem, r.Reference)
	}
	projs, err := model.TableIV()
	if err != nil {
		return err
	}
	for _, p := range []int{0, 4} { // smallest and largest configuration
		pr := projs[p]
		fmt.Fprintf(t, "XMT %s (this repo, modeled)\tsingle chip\t%.0f\t3D FFT 512^3\tTable IV reproduction\n",
			pr.Cfg.Name, pr.GFLOPS)
	}
	return t.Flush()
}

// AblationOptions configures AblationReport; the zero value is the
// plain report.
type AblationOptions struct {
	// Epoch, when non-zero, runs the baseline ("paper") variant with a
	// trace recorder sampling utilization every Epoch cycles; the
	// recorder is returned for export (Perfetto JSON, utilization SVG,
	// text summary). The other variants run untraced — attaching a
	// recorder never alters simulated cycles either way.
	Epoch uint64
	// Obs, when non-nil, is attached to every variant's machine (live
	// metrics sampling plus engine telemetry, both cumulative across the
	// sweep), and each finished variant ticks one work unit so /progress
	// can show an ETA.
	Obs *Obs
	// Ckpt, when non-nil, enables checkpoint/resume at variant
	// granularity.
	Ckpt *AblationCkpt
}

// AblationCkpt configures checkpoint/resume for an ablation sweep. The
// sweep's quiescent points are variant boundaries — each variant builds
// a fresh machine, so the checkpoint is meta-only: completed-variant
// count and cycle counts, no machine or workload state.
type AblationCkpt struct {
	// Path is the checkpoint file written after each completed variant.
	Path string
	// Resume, when non-nil, is a previously written sweep checkpoint;
	// completed variants are reprinted from it without re-simulating.
	Resume *ckpt.Checkpoint
	// Every is the number of variants between checkpoint writes (values
	// below 1 mean every variant); a stop or the final variant always
	// writes.
	Every int
	// Stop, when non-nil, is polled after each variant; returning true
	// aborts the sweep (after writing the checkpoint) with ErrInterrupted.
	Stop func() bool
	// Obs, when non-nil, receives RecordCheckpoint for every write.
	Obs *Obs
}

// ErrInterrupted reports a run stopped at a quiescent point by a signal
// (SIGINT/SIGTERM): partial artifacts are flushed and, when configured,
// a resumable checkpoint was written. CLIs map it to ExitInterrupted.
var ErrInterrupted = errors.New("harness: run interrupted by signal")

// ExitInterrupted is the simulator CLIs' exit code for a signal-stopped
// run, distinct from success (0), runtime failure (1) and usage errors
// (2).
const ExitInterrupted = 3

// SetFlags returns the names of flags explicitly set on the command
// line, to distinguish "defaulted" from "requested" on resume.
func SetFlags() map[string]bool {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// NotifyStop installs the SIGINT/SIGTERM handler: the first signal
// requests a graceful stop at the next quiescent point (a phase or an
// ablation variant boundary); a second one aborts immediately with
// ExitInterrupted.
func NotifyStop() *atomic.Bool {
	var stopped atomic.Bool
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		slog.Warn("signal received; stopping at the next quiescent point (send again to abort immediately)",
			"signal", s.String())
		stopped.Store(true)
		s = <-ch
		slog.Error("second signal; aborting without flushing", "signal", s.String())
		os.Exit(ExitInterrupted)
	}()
	return &stopped
}

// AblationReport runs the §IV-A design ablations on the detailed
// simulator (radix 2/4/8, fine vs coarse granularity, prefetch) at the
// given scaled machine size and cube size, printing one table.
func AblationReport(w io.Writer, tcus, n int, opts AblationOptions) (*trace.Recorder, error) {
	epoch, obs, ck := opts.Epoch, opts.Obs, opts.Ckpt
	cfg, err := config.FourK().Scaled(tcus)
	if err != nil {
		return nil, err
	}
	type variant struct {
		name     string
		radix    int
		coarse   bool
		prefetch bool
	}
	variants := []variant{
		{"radix 8, fine (paper)", 0, false, false},
		{"radix 4, fine", 4, false, false},
		{"radix 2, fine", 2, false, false},
		{"radix 8, coarse", 0, true, false},
		{"radix 8, fine, prefetch", 0, false, true},
	}

	start := 0
	var stageCycles []uint64
	if ck != nil && ck.Resume != nil {
		meta := ck.Resume.Meta
		if meta.Config.Name != cfg.Name || meta.Dims != [3]int{n, n, n} {
			return nil, fmt.Errorf("harness: ablation resume for %s %d^3, run is %s %d^3",
				meta.Config.Name, meta.Dims[2], cfg.Name, n)
		}
		if meta.Stage < 0 || meta.Stage > len(variants) || len(meta.StageCycles) != meta.Stage {
			return nil, fmt.Errorf("harness: ablation resume at variant %d with %d cycle records (sweep has %d variants)",
				meta.Stage, len(meta.StageCycles), len(variants))
		}
		if meta.Workers == 0 {
			return nil, fmt.Errorf("harness: ablation resume: checkpoint captured on the removed legacy serial engine (-sim-workers 0), whose cycle counts differ; rerun the sweep")
		}
		start = meta.Stage
		stageCycles = append(stageCycles, meta.StageCycles...)
	}

	total := n * n * n
	t := tw(w)
	fmt.Fprintf(t, "ABLATIONS (§IV-A design choices): %d^3 FFT on %s\n", n, cfg)
	fmt.Fprintln(t, "variant\tcycles\tGFLOPS (5NlogN)\trelative time")
	if obs != nil {
		obs.SetWork(len(variants), start)
	}

	writeCkpt := func(done int) error {
		if ck == nil || ck.Path == "" {
			return nil
		}
		c := &ckpt.Checkpoint{Meta: ckpt.Meta{
			Config: cfg, Workers: 1,
			DimCount: 3, Dims: [3]int{n, n, n},
			Stage: done, StageCycles: stageCycles,
			Cycle: stageCycles[done-1],
			Note:  "ablation sweep progress (meta-only)",
		}}
		bytes, err := ckpt.Write(ck.Path, c)
		if err != nil {
			return err
		}
		if ck.Obs != nil {
			ck.Obs.RecordCheckpoint(bytes, c.Meta.Cycle)
		}
		return nil
	}

	row := func(name string, cycles, base uint64) {
		fmt.Fprintf(t, "%s\t%d\t%.2f\t%.2fx\n", name, cycles,
			stats.StandardGFLOPS(total, cycles, config.ClockGHz),
			float64(cycles)/float64(base))
	}

	var base uint64
	// Reprint the resumed-from variants so the table is complete.
	for vi := 0; vi < start; vi++ {
		if base == 0 {
			base = stageCycles[0]
		}
		row(variants[vi].name, stageCycles[vi], base)
	}

	var rec *trace.Recorder
	for vi := start; vi < len(variants); vi++ {
		v := variants[vi]
		m, err := xmt.New(cfg)
		if err != nil {
			return nil, err
		}
		if vi == 0 && epoch > 0 {
			rec = trace.NewRecorder(epoch)
			rec.Label = fmt.Sprintf("%s ablation baseline", cfg.Name)
			m.AttachRecorder(rec)
		}
		if obs != nil {
			obs.Watch(m)
			m.Section(v.name)
		}
		m.EnablePrefetch(v.prefetch)
		tr, err := core.New3D(m, n, n, n)
		if err != nil {
			return nil, err
		}
		if v.radix != 0 {
			if err := tr.SetFixedRadix(v.radix); err != nil {
				return nil, err
			}
		}
		for i := range tr.Data {
			tr.Data[i] = complex(float32(i%17)-8, float32(i%11)-5)
		}
		var run stats.Run
		if v.coarse {
			run, err = tr.RunCoarse(fft.Forward)
		} else {
			run, err = tr.Run(fft.Forward)
		}
		if err != nil {
			return nil, err
		}
		cycles := run.TotalCycles()
		if base == 0 {
			base = cycles
		}
		stageCycles = append(stageCycles, cycles)
		if obs != nil {
			m.FlushLiveMetrics()
			obs.AddWork(1)
		}
		row(v.name, cycles, base)
		done := vi + 1
		stop := ck != nil && ck.Stop != nil && ck.Stop() && done < len(variants)
		if ck != nil && ck.Path != "" {
			every := ck.Every
			if every < 1 {
				every = 1
			}
			if stop || done == len(variants) || done%every == 0 {
				if err := writeCkpt(done); err != nil {
					return nil, err
				}
			}
		}
		if stop {
			t.Flush()
			return rec, ErrInterrupted
		}
	}
	return rec, t.Flush()
}

// TableIVCSV writes the Table IV reproduction as machine-readable CSV.
func TableIVCSV(w io.Writer) error {
	projs, err := model.TableIV()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "config,tcus,gflops_model,gflops_paper,deviation_pct")
	for _, p := range projs {
		paper := model.PaperTableIV[p.Cfg.Name]
		fmt.Fprintf(w, "%q,%d,%.1f,%.0f,%.2f\n",
			p.Cfg.Name, p.Cfg.TCUs, p.GFLOPS, paper, (p.GFLOPS-paper)/paper*100)
	}
	return nil
}

// TableVCSV writes the Table V reproduction as machine-readable CSV.
func TableVCSV(w io.Writer) error {
	rows, err := model.TableV()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "config,vs_serial_model,vs_serial_paper,vs_32t_model,vs_32t_paper")
	for _, r := range rows {
		fmt.Fprintf(w, "%q,%.1f,%.0f,%.2f,%.1f\n",
			r.Cfg.Name, r.VsSerialFFTW, r.PaperVsSerial, r.VsParallelFFTW, r.PaperVsParallel)
	}
	return nil
}
