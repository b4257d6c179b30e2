package harness

// Simulator-performance benchmark: the same 3D-FFT workload simulated at
// several worker counts, with wall-clock times and engine statistics
// written as a machine-readable BENCH_sim.json record (the simulator
// counterpart of the host-FFT BENCH_fft.json).
//
// Throughput is derived from *useful* (model-level) work — loads,
// stores, FP/ALU/prefix-sum operations and threads — which is a property
// of the workload, not of how the engine schedules it. Raw engine event
// counts are still recorded, but dividing by them rewards whichever
// design executes the most bookkeeping: an earlier sharded design
// churned through 10x the events of the same FFT and so reported 3x the
// "throughput" while being 3x slower.
//
// The record embeds the host's GOMAXPROCS and CPU count, because
// wall-clock speedup from workers > 1 only materializes when the host
// actually has spare cores. Simulated cycle counts are asserted
// identical across worker counts as a built-in sanity check (the
// engine's determinism contract).

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fft"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

// SimBenchResult is one worker-count measurement (best of reps).
type SimBenchResult struct {
	Engine     string  `json:"engine"` // always "sharded", the one engine
	Workers    int     `json:"workers"`
	ElapsedSec float64 `json:"elapsed_sec"`
	Cycles     uint64  `json:"cycles"` // simulated cycles of the FFT
	// Events counts raw engine events (pops from the shard queues) — an
	// engine-internal quantity that depends on how the engine schedules
	// the work. UsefulEvents counts model-level operations (loads,
	// stores, FP/ALU/PS ops, threads), a property of the workload, and
	// is the denominator-neutral basis for throughput comparison.
	Events             uint64  `json:"events"`
	UsefulEvents       uint64  `json:"useful_events"`
	UsefulEventsPerSec float64 `json:"useful_events_per_sec"`
	EngineEventsPerSec float64 `json:"engine_events_per_sec"`
	Windows            uint64  `json:"windows,omitempty"`
	Barriers           uint64  `json:"barriers,omitempty"` // windows that delivered messages
	Messages           uint64  `json:"messages,omitempty"`
}

// SimBenchRecord is the full BENCH_sim.json payload.
type SimBenchRecord struct {
	Kind       string           `json:"kind"` // "xmt-sim-bench"
	Config     string           `json:"config"`
	TCUs       int              `json:"tcus"`
	N          int              `json:"n"` // points per dimension, n^3 total
	Reps       int              `json:"reps"`
	GoMaxProcs int              `json:"go_max_procs"`
	NumCPU     int              `json:"num_cpu"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	Results    []SimBenchResult `json:"results"`
	// SpeedupVsSerialDriver maps "workers=K" to the wall-clock speedup of
	// the K-worker run over the 1-worker (inline driver) run.
	SpeedupVsSerialDriver map[string]float64 `json:"speedup_vs_serial_driver,omitempty"`
	Note                  string             `json:"note,omitempty"`
}

// Write emits the record as indented JSON.
func (r *SimBenchRecord) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// usefulEvents reduces a counter set to the model-level operation count:
// the work a run performs regardless of how the engine scheduled it.
func usefulEvents(c stats.Counters) uint64 {
	return c.Loads + c.Stores + c.FPOps + c.ALUOps + c.PSOps + c.Threads
}

// simBenchOnce runs one n^3 FFT on a fresh machine and measures it.
func simBenchOnce(cfg config.Config, n, workers int) (SimBenchResult, error) {
	m, err := xmt.NewParallel(cfg, workers)
	if err != nil {
		return SimBenchResult{}, err
	}
	tr, err := core.New3D(m, n, n, n)
	if err != nil {
		return SimBenchResult{}, err
	}
	for i := range tr.Data {
		tr.Data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
	begin := time.Now()
	run, err := tr.Run(fft.Forward)
	if err != nil {
		return SimBenchResult{}, err
	}
	elapsed := time.Since(begin).Seconds()
	st := m.SimStats()
	res := SimBenchResult{
		Engine: "sharded", Workers: workers, ElapsedSec: elapsed,
		Cycles: run.TotalCycles(), Events: st.Events,
		UsefulEvents: usefulEvents(m.Counters),
		Windows:      st.Windows, Barriers: st.Barriers, Messages: st.Messages,
	}
	if elapsed > 0 {
		res.UsefulEventsPerSec = float64(res.UsefulEvents) / elapsed
		res.EngineEventsPerSec = float64(st.Events) / elapsed
	}
	return res, nil
}

// RunSimBench measures the engine at each of the given worker counts
// (each the best of reps runs) on an n^3 FFT at the scaled 4k machine
// size.
func RunSimBench(tcus, n int, workerCounts []int, reps int) (*SimBenchRecord, error) {
	cfg, err := config.FourK().Scaled(tcus)
	if err != nil {
		return nil, err
	}
	if reps < 1 {
		reps = 1
	}
	rec := &SimBenchRecord{
		Kind: "xmt-sim-bench", Config: cfg.Name, TCUs: cfg.TCUs, N: n, Reps: reps,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	measure := func(workers int) (SimBenchResult, error) {
		var best SimBenchResult
		for r := 0; r < reps; r++ {
			res, err := simBenchOnce(cfg, n, workers)
			if err != nil {
				return SimBenchResult{}, err
			}
			if r == 0 || res.ElapsedSec < best.ElapsedSec {
				best = res
			}
		}
		return best, nil
	}
	for _, wc := range workerCounts {
		if wc < 1 {
			return nil, fmt.Errorf("harness: sim-bench worker count %d must be >= 1", wc)
		}
		res, err := measure(wc)
		if err != nil {
			return nil, err
		}
		rec.Results = append(rec.Results, res)
	}
	// Determinism sanity check and the speedup table. Sub-resolution
	// timings (elapsed == 0 on fast configs) simply omit the affected
	// ratios instead of producing 0 or +Inf entries.
	var serialDriver *SimBenchResult
	for i := range rec.Results {
		if r := &rec.Results[i]; r.Workers == 1 {
			serialDriver = r
			break
		}
	}
	if serialDriver != nil {
		rec.SpeedupVsSerialDriver = map[string]float64{}
		for _, r := range rec.Results {
			if r.Cycles != serialDriver.Cycles {
				return nil, fmt.Errorf("harness: runs disagree on cycles (%d vs %d) — determinism violated",
					r.Cycles, serialDriver.Cycles)
			}
			if r.Workers > 1 && r.ElapsedSec > 0 && serialDriver.ElapsedSec > 0 {
				rec.SpeedupVsSerialDriver[fmt.Sprintf("workers=%d", r.Workers)] =
					serialDriver.ElapsedSec / r.ElapsedSec
			}
		}
	}
	if rec.NumCPU == 1 || rec.GoMaxProcs == 1 {
		rec.Note = "host has a single available CPU: worker parallelism cannot yield wall-clock speedup here; re-run on a multi-core host (see CI bench job)"
	}
	return rec, nil
}
