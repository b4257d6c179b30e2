package harness

// Resilience-overhead benchmark: the same 3D-FFT workload simulated at
// a sweep of fault rates, reporting how simulated cycles and achieved
// GFLOPS degrade as the NoC retransmit and DRAM ECC machinery absorbs
// the injected faults. Rate 0 is always measured first and used as the
// baseline for the overhead columns; the protection contract (DESIGN.md
// §8) is asserted inline — every faulty run must produce output
// bit-identical to the fault-free run or the whole benchmark errors
// out rather than report numbers for a corrupted computation.

import (
	"encoding/json"
	"fmt"
	"io"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fault"
	"xmtfft/internal/fft"
	"xmtfft/internal/stats"
	"xmtfft/internal/xmt"
)

// FaultBenchResult is one fault-rate measurement.
type FaultBenchResult struct {
	Rate             float64 `json:"rate"` // NoC drop & DRAM bit-error probability
	Cycles           uint64  `json:"cycles"`
	GFLOPS           float64 `json:"gflops"`          // 5NlogN convention at the simulated clock
	CyclesOverhead   float64 `json:"cycles_overhead"` // vs the rate-0 run, e.g. 0.12 = +12%
	NoCDrops         uint64  `json:"noc_drops"`
	NoCCorrupts      uint64  `json:"noc_corrupts"`
	NoCRetransmits   uint64  `json:"noc_retransmits"`
	ECCCorrected     uint64  `json:"ecc_corrected"`
	ECCUncorrectable uint64  `json:"ecc_uncorrectable"`
}

// FaultBenchRecord is the full BENCH_fault.json payload.
type FaultBenchRecord struct {
	Kind    string             `json:"kind"` // "xmt-fault-bench"
	Config  string             `json:"config"`
	TCUs    int                `json:"tcus"`
	N       int                `json:"n"` // points per dimension, n^3 total
	Seed    uint64             `json:"seed"`
	Workers int                `json:"workers"` // simulation worker count
	Results []FaultBenchResult `json:"results"`
	Note    string             `json:"note,omitempty"`
}

// Write emits the record as indented JSON.
func (r *FaultBenchRecord) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// faultBenchOnce runs one n^3 FFT under the given plan and returns the
// measurement plus the raw output bits (for the protection check).
func faultBenchOnce(cfg config.Config, n, workers int, plan *fault.Plan) (FaultBenchResult, []complex64, error) {
	m, err := xmt.NewParallel(cfg, workers)
	if err != nil {
		return FaultBenchResult{}, nil, err
	}
	if plan != nil {
		if err := m.EnableFaults(*plan); err != nil {
			return FaultBenchResult{}, nil, err
		}
	}
	tr, err := core.New3D(m, n, n, n)
	if err != nil {
		return FaultBenchResult{}, nil, err
	}
	for i := range tr.Data {
		tr.Data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
	run, err := tr.Run(fft.Forward)
	if err != nil {
		return FaultBenchResult{}, nil, err
	}
	cycles := run.TotalCycles()
	c := m.Counters
	res := FaultBenchResult{
		Cycles:           cycles,
		GFLOPS:           stats.StandardGFLOPS(tr.N(), cycles, config.ClockGHz),
		NoCDrops:         c.NoCDropped,
		NoCCorrupts:      c.NoCCorrupted,
		NoCRetransmits:   c.NoCRetransmits,
		ECCCorrected:     c.ECCCorrected,
		ECCUncorrectable: c.ECCUncorrectable,
	}
	out := make([]complex64, len(tr.Data))
	copy(out, tr.Data)
	return res, out, nil
}

// RunFaultBench measures an n^3 FFT at each fault rate on the scaled
// 4k machine. Each rate r injects NoC drops with probability r, NoC
// corruption with probability r/2 and DRAM single-bit errors with
// probability r per line fetch, all protected (retransmit + SECDED).
// Rate 0 is always measured (and prepended if absent) as the baseline.
// workers is the simulation worker count, as for xmt.NewParallel.
func RunFaultBench(tcus, n, workers int, seed uint64, rates []float64) (*FaultBenchRecord, error) {
	cfg, err := config.FourK().Scaled(tcus)
	if err != nil {
		return nil, err
	}
	hasZero := false
	for _, r := range rates {
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("harness: fault rate %g outside [0, 1]", r)
		}
		if r == 0 {
			hasZero = true
		}
	}
	if !hasZero {
		rates = append([]float64{0}, rates...)
	}
	rec := &FaultBenchRecord{
		Kind: "xmt-fault-bench", Config: cfg.Name, TCUs: cfg.TCUs,
		N: n, Seed: seed, Workers: workers,
	}
	var baseCycles uint64
	var baseOut []complex64
	for _, rate := range rates {
		var plan *fault.Plan
		if rate > 0 {
			plan = &fault.Plan{Seed: seed, NoCDrop: rate, NoCCorrupt: rate / 2, DRAMBitErr: rate}
		}
		res, out, err := faultBenchOnce(cfg, n, workers, plan)
		if err != nil {
			return nil, fmt.Errorf("harness: fault bench at rate %g: %w", rate, err)
		}
		res.Rate = rate
		if rate == 0 {
			baseCycles, baseOut = res.Cycles, out
		} else {
			if baseCycles > 0 {
				res.CyclesOverhead = float64(res.Cycles)/float64(baseCycles) - 1
			}
			for i := range out {
				if out[i] != baseOut[i] {
					return nil, fmt.Errorf("harness: fault bench at rate %g: protected output diverged from fault-free run (protection contract violated)", rate)
				}
			}
		}
		rec.Results = append(rec.Results, res)
	}
	rec.Note = "outputs at every rate verified bit-identical to the rate-0 run"
	return rec, nil
}
