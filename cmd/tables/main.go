// Command tables regenerates the paper's evaluation tables (I-VI) and
// the §VI-A silicon comparison, printing published values beside the
// values this repository reproduces.
//
// Usage:
//
//	tables             # everything
//	tables -table 4    # one table
//	tables -host       # additionally measure this host's Go FFT
//	                   # (the runnable FFTW substitute)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"xmtfft/internal/baseline"
	"xmtfft/internal/harness"
)

func main() {
	table := flag.Int("table", 0, "table number 1-6 (0 = all)")
	host := flag.Bool("host", false, "also measure the host Go FFT baseline")
	hostN := flag.Int("hostn", 128, "per-dimension size for -host (power of two)")
	ablation := flag.Bool("ablation", false, "also run the §IV-A design ablations on the detailed simulator")
	csvOut := flag.Bool("csv", false, "emit Tables IV and V as CSV instead of text")
	flag.Parse()

	if *csvOut {
		if err := harness.TableIVCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		fmt.Println()
		if err := harness.TableVCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		return
	}

	out := os.Stdout
	var err error
	switch *table {
	case 0:
		err = harness.All(out)
	case 1:
		err = harness.TableI(out)
	case 2:
		err = harness.TableII(out)
	case 3:
		err = harness.TableIII(out)
	case 4:
		err = harness.TableIV(out)
	case 5:
		err = harness.TableV(out)
	case 6:
		err = harness.TableVI(out)
	default:
		err = fmt.Errorf("unknown table %d", *table)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}

	if *ablation {
		fmt.Println()
		if _, err := harness.AblationReport(os.Stdout, 1024, 32, harness.AblationOptions{}); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
	}

	if *host {
		fmt.Println("\nHost FFTW-substitute measurement (this repo's Go FFT):")
		serial, err := baseline.MeasureHost3D(*hostN, 1, 3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		fmt.Printf("  serial     %d^3: %8.2f GFLOPS (%v)\n", serial.N, serial.GFLOPS, serial.Elapsed)
		par, err := baseline.MeasureHost3D(*hostN, runtime.GOMAXPROCS(0), 3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		fmt.Printf("  %2d workers %d^3: %8.2f GFLOPS (%v), %.1fx self-speedup\n",
			par.Workers, par.N, par.GFLOPS, par.Elapsed, par.GFLOPS/serial.GFLOPS)
		fmt.Printf("  (paper's published FFTW reference: %.2f serial / %.1f with 32 threads)\n",
			baseline.FFTWSerialGFLOPS, baseline.FFTWParallelGFLOPS)
	}
}
