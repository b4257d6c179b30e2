package harness

// Simulator-performance benchmark: one 3D-FFT workload simulated with
// its wall-clock time and engine statistics written as a
// machine-readable BENCH_sim.json record (the simulator counterpart of
// the host-FFT BENCH_fft.json).
//
// Throughput is derived from *useful* (model-level) work — loads,
// stores, FP/ALU/prefix-sum operations and threads — which is a property
// of the workload, not of how the engine schedules it. Raw engine event
// counts are still recorded, but dividing by them rewards whichever
// design executes the most bookkeeping: an earlier sharded design
// churned through 10x the events of the same FFT and so reported 3x the
// "throughput" while being 3x slower.
//
// The record embeds the host's GOMAXPROCS and CPU count, so wall-clock
// times from different hosts are not compared blind.

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

// SimBenchResult is one measurement (best of reps).
type SimBenchResult struct {
	Engine     string  `json:"engine"` // always "sharded", the one engine
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
func simBenchOnce(cfg config.Config, n int) (SimBenchResult, error) {
	m, err := xmt.New(cfg)
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
		Engine: "sharded", ElapsedSec: elapsed,
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

// RunSimBench measures the engine on an n^3 FFT at the scaled 4k
// machine size, the best of reps runs, and records one result.
// workerCounts is deprecated: it is accepted for existing callers, every
// entry must be 1, and it does not change the record.
func RunSimBench(tcus, n int, workerCounts []int, reps int) (*SimBenchRecord, error) {
	for _, wc := range workerCounts {
		if wc != 1 {
			return nil, fmt.Errorf("harness: sim-bench worker count %d: the engine runs on one goroutine, so every count must be 1", wc)
		}
	}
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
	var best SimBenchResult
	for r := 0; r < reps; r++ {
		res, err := simBenchOnce(cfg, n)
		if err != nil {
			return nil, err
		}
		if r == 0 || res.ElapsedSec < best.ElapsedSec {
			best = res
		}
	}
	rec.Results = []SimBenchResult{best}
	return rec, nil
}
