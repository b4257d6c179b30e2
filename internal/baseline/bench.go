package baseline

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"xmtfft/internal/fft"
)

// BenchRecord is the machine-readable perf record (BENCH_fft.json)
// emitted by `xmtbench -host-bench`: codelet-on/off measurements of the
// FFTW-substitute host FFT, with enough machine context to compare
// records from the same host.
type BenchRecord struct {
	Name       string       `json:"name"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Results    []HostResult `json:"results"`
}

// HostBench1DSizes are the serial 1D sizes RunHostBench measures as
// codelet-on/off pairs: the generated-kernel coverage range.
var HostBench1DSizes = []int{64, 128, 256, 512, 1024}

// RunHostBench measures the host FFT two ways: serial 1D transforms
// with codelet leaves on and off over HostBench1DSizes, then at each n³
// (serially and — when the machine has more than one worker available —
// in parallel) with codelet leaves on and off, keeping the best of reps
// runs per point.
func RunHostBench(sizes []int, workers, reps int) (BenchRecord, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rec := BenchRecord{
		Name:       "host-fft codelet ablation",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, n := range HostBench1DSizes {
		for _, codelets := range []bool{true, false} {
			r, err := MeasureHost1D(n, reps, codelets)
			if err != nil {
				return rec, fmt.Errorf("baseline: 1d n=%d codelets=%v: %w", n, codelets, err)
			}
			rec.Results = append(rec.Results, r)
		}
	}
	workerCounts := []int{1}
	if workers > 1 {
		workerCounts = append(workerCounts, workers)
	}
	for _, n := range sizes {
		for _, w := range workerCounts {
			for _, codelets := range []bool{true, false} {
				r, err := MeasureHost3D(n, w, reps, fft.WithCodelets(codelets))
				if err != nil {
					return rec, fmt.Errorf("baseline: %d^3 x%d codelets=%v: %w", n, w, codelets, err)
				}
				rec.Results = append(rec.Results, r)
			}
		}
	}
	return rec, nil
}

// CodeletSpeedup1D returns the codelets-off over codelets-on elapsed
// ratio of the serial 1D pair at size n, or 0 if the record lacks it.
func (r BenchRecord) CodeletSpeedup1D(n int) float64 {
	return r.codeletSpeedup(func(h *HostResult) bool {
		return h.Dim == 1 && h.N == n
	})
}

// CodeletSpeedup3D returns the codelets-off over codelets-on elapsed
// ratio at n³ with the given worker count, or 0 if the record lacks the
// pair.
func (r BenchRecord) CodeletSpeedup3D(n, workers int) float64 {
	return r.codeletSpeedup(func(h *HostResult) bool {
		return h.Dim != 1 && h.N == n && h.Workers == workers
	})
}

func (r BenchRecord) codeletSpeedup(match func(*HostResult) bool) float64 {
	var on, off *HostResult
	for i := range r.Results {
		h := &r.Results[i]
		if !match(h) {
			continue
		}
		if h.Codelets {
			on = h
		} else {
			off = h
		}
	}
	if on == nil || off == nil || on.Elapsed <= 0 {
		return 0
	}
	return float64(off.Elapsed) / float64(on.Elapsed)
}

// Write emits the record as indented JSON.
func (r BenchRecord) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchRecord parses a record written by Write.
func ReadBenchRecord(r io.Reader) (BenchRecord, error) {
	var rec BenchRecord
	err := json.NewDecoder(r).Decode(&rec)
	return rec, err
}
