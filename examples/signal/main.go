// Signal performs multi-tone spectral peak detection with Hann
// windowing on a batch of noisy frames, comparing serial and parallel
// (goroutine) batched execution — the coarse-grained host-parallel
// strategy of §IV-A, which is how FFTW exploits a multicore. The
// goroutines all share one plan, which is safe for concurrent
// Transform calls.
//
// Run with: go run ./examples/signal
package main

import (
	"fmt"
	"log"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"xmtfft/internal/fft"
	"xmtfft/internal/spectral"
)

const (
	frameLen   = 1024
	frames     = 256
	sampleRate = 48000.0
)

var tones = []struct {
	freqHz, amp float64
}{
	{1200, 1.0},
	{5000, 0.6},
	{13700, 0.35},
}

func main() {
	rng := rand.New(rand.NewSource(42))

	// Hann window.
	window := make([]float64, frameLen)
	for i := range window {
		window[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/(frameLen-1)))
	}

	// Batch of noisy frames containing the same tones.
	batch := make([]complex128, frames*frameLen)
	for f := 0; f < frames; f++ {
		for i := 0; i < frameLen; i++ {
			t := float64(i) / sampleRate
			v := 0.25 * rng.NormFloat64()
			for _, tone := range tones {
				v += tone.amp * math.Sin(2*math.Pi*tone.freqHz*t)
			}
			batch[f*frameLen+i] = complex(v*window[i], 0)
		}
	}

	plan, err := fft.NewPlan[complex128](frameLen)
	if err != nil {
		log.Fatal(err)
	}

	// run splits the frames across workers goroutines, each
	// transforming its share on the one shared plan.
	run := func(workers int) ([]complex128, time.Duration) {
		data := append([]complex128(nil), batch...)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for f := lo; f < hi; f++ {
					if err := plan.Transform(data[f*frameLen:(f+1)*frameLen], fft.Forward); err != nil {
						log.Fatal(err)
					}
				}
			}(frames*w/workers, frames*(w+1)/workers)
		}
		wg.Wait()
		return data, time.Since(start)
	}

	serial, tSerial := run(1)
	parallel, tParallel := run(runtime.GOMAXPROCS(0))

	// Results must agree bit for bit.
	for i := range serial {
		if serial[i] != parallel[i] {
			log.Fatalf("serial and parallel spectra differ at %d", i)
		}
	}

	// Average the magnitude spectra across frames and pick peaks.
	avg := make([]float64, frameLen/2)
	for f := 0; f < frames; f++ {
		for k := 0; k < frameLen/2; k++ {
			avg[k] += cmplx.Abs(serial[f*frameLen+k])
		}
	}
	for k := range avg {
		avg[k] /= frames
	}
	type peak struct {
		bin int
		mag float64
	}
	var peaks []peak
	for k := 2; k < len(avg)-2; k++ {
		if avg[k] > avg[k-1] && avg[k] > avg[k+1] && avg[k] > 8 {
			peaks = append(peaks, peak{k, avg[k]})
		}
	}
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].mag > peaks[j].mag })

	fmt.Printf("spectral peak detection: %d frames x %d samples, Hann window\n", frames, frameLen)
	fmt.Printf("  serial:   %v\n", tSerial)
	fmt.Printf("  %d workers: %v (%.1fx)\n", runtime.GOMAXPROCS(0), tParallel,
		float64(tSerial)/float64(tParallel))
	fmt.Println("  detected tones (bin -> Hz, expected in parentheses):")
	for i, p := range peaks {
		if i >= len(tones) {
			break
		}
		hz := float64(p.bin) * sampleRate / frameLen
		fmt.Printf("    bin %4d -> %7.1f Hz, mean |X| = %6.1f  (expected %.0f Hz)\n",
			p.bin, hz, p.mag, tones[i].freqHz)
	}
	if len(peaks) < len(tones) {
		log.Fatalf("only %d of %d tones detected", len(peaks), len(tones))
	}

	// The same analysis through Welch's averaged periodogram
	// (internal/spectral), which trades frequency resolution for
	// variance reduction.
	flat := make([]float64, frames*frameLen)
	rng2 := rand.New(rand.NewSource(42))
	for i := range flat {
		t := float64(i%frameLen) / sampleRate
		v := 0.25 * rng2.NormFloat64()
		for _, tone := range tones {
			v += tone.amp * math.Sin(2*math.Pi*tone.freqHz*t)
		}
		flat[i] = v
	}
	psd, err := spectral.Welch(flat, sampleRate, frameLen, frameLen/2, fft.Hann)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nWelch PSD (%d averaged segments): strongest tone at %.0f Hz, total power %.2f\n",
		psd.Segments, psd.PeakFreq(), psd.TotalPower())
}
