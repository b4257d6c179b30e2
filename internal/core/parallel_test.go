package core

import (
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/fft"
	"xmtfft/internal/xmt"
)

// The full 3D FFT as a differential workload across worker counts:
// functional output and phase-by-phase cycle counts must be identical at
// every worker count.

func fillTest(data []complex64) {
	for i := range data {
		data[i] = complex(float32(i%17)-8, float32(i%11)-5)
	}
}

func TestTransform3DShardedWorkerInvariance(t *testing.T) {
	cfg, err := config.FourK().Scaled(256)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		data   []complex64
		cycles uint64
		phases []uint64
	}
	run := func(workers int) outcome {
		m, err := xmt.NewParallel(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := New3D(m, 8, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		fillTest(tr.Data)
		res, err := tr.Run(fft.Forward)
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{data: tr.Data, cycles: res.TotalCycles()}
		for _, p := range res.Phases {
			o.phases = append(o.phases, p.Cycles)
		}
		return o
	}
	ref := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if got.cycles != ref.cycles {
			t.Errorf("workers=%d: total cycles %d, want %d", workers, got.cycles, ref.cycles)
		}
		for i := range ref.phases {
			if got.phases[i] != ref.phases[i] {
				t.Errorf("workers=%d: phase %d cycles %d, want %d",
					workers, i, got.phases[i], ref.phases[i])
			}
		}
		for i := range ref.data {
			if got.data[i] != ref.data[i] {
				t.Fatalf("workers=%d: output diverges at %d: %v vs %v",
					workers, i, got.data[i], ref.data[i])
			}
		}
	}
}
