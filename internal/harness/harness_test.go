package harness

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmtfft/internal/ckpt"
	"xmtfft/internal/config"
)

func render(t *testing.T, f func(w *bytes.Buffer) error) string {
	t.Helper()
	var b bytes.Buffer
	if err := f(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTableII(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return TableII(b) })
	for _, want := range []string{"131072", "4096", "Butterfly", "FPUs per Cluster"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestTableIII(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return TableIII(b) })
	for _, want := range []string{"22", "14", "227", "393"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III missing %q", want)
		}
	}
}

func TestTableIVShowsBothColumns(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return TableIV(b) })
	for _, want := range []string{"239", "18972", "deviation", "128k x4"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table IV missing %q:\n%s", want, out)
		}
	}
}

func TestTableV(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return TableV(b) })
	for _, want := range []string{"vs serial", "32 threads", "7.61", "85.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table V missing %q", want)
		}
	}
}

func TestTableVI(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return TableVI(b) })
	for _, want := range []string{"124608 cores", "131072 TCUs", "2500 KW", "0.57%", "57409"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table VI missing %q:\n%s", want, out)
		}
	}
}

func TestFig3(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return Fig3(b) })
	for _, want := range []string{"rotation", "non-rotation", "overall", "ridge", "4k", "128k x4"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig 3 missing %q", want)
		}
	}
}

func TestFig3CSV(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return Fig3CSV(b) })
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + 5 configs x (9 roofline + 3 markers).
	want := 1 + 5*12
	if len(lines) != want {
		t.Errorf("CSV has %d lines, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "config,series") {
		t.Errorf("bad CSV header %q", lines[0])
	}
}

func TestAll(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return All(b) })
	for _, want := range []string{"TABLE I", "TABLE II", "TABLE III", "TABLE IV", "TABLE V", "TABLE VI", "FIG. 3", "Silicon comparison"} {
		if !strings.Contains(out, want) {
			t.Errorf("All output missing %q", want)
		}
	}
}

func TestTechReport(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return TechReport(b) })
	for _, want := range []string{"6.76", "224 pins", "1792 pins", "MFC-cooled photonics", "TSV", "81920"} {
		if !strings.Contains(out, want) {
			t.Errorf("tech report missing %q:\n%s", want, out)
		}
	}
}

func TestScalingReport(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return ScalingReport(b) })
	for _, want := range []string{"SIZE SCALING", "STRONG SCALING", "dram", "noc", "1024", "128k x4"} {
		if !strings.Contains(out, want) {
			t.Errorf("scaling report missing %q:\n%s", want, out)
		}
	}
}

func TestWeakScalingReport(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return WeakScalingReport(b) })
	for _, want := range []string{"WEAK SCALING", "256x256x256", "512x256x256", "efficiency"} {
		if !strings.Contains(out, want) {
			t.Errorf("weak scaling report missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Detailed(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error {
		return Fig3Detailed(b, config.FourK(), 256, 16)
	})
	for _, want := range []string{"DETAILED-SIM ROOFLINE", "rotation", "non-rotation", "overall", "GFLOPS actual"} {
		if !strings.Contains(out, want) {
			t.Errorf("detailed fig3 missing %q:\n%s", want, out)
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenAll pins the complete harness output: the simulated results
// are deterministic, so any drift in a table or figure shows up as a
// diff against the golden file (regenerate with -update).
func TestGoldenAll(t *testing.T) {
	var b bytes.Buffer
	if err := All(&b); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/all.golden"
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got := b.String()
		wantS := string(want)
		// Locate the first differing line for a usable message.
		gl, wl := strings.Split(got, "\n"), strings.Split(wantS, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output drifted at line %d:\n  got:  %q\n  want: %q\n(re-run with -update if intentional)", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output length drifted: %d vs %d lines", len(gl), len(wl))
	}
}

func TestPriorWorkComparison(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return PriorWorkComparison(b) })
	for _, want := range []string{"GTX 280", "BlueGene", "XMT 128k x4", "Table IV reproduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("prior-work comparison missing %q:\n%s", want, out)
		}
	}
}

func TestAblationReport(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error {
		_, err := AblationReport(b, 256, 8, AblationOptions{})
		return err
	})
	for _, want := range []string{"ABLATIONS", "radix 8, fine (paper)", "coarse", "prefetch", "1.00x"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation report missing %q:\n%s", want, out)
		}
	}
}

// TestAblationResumeAcrossWorkerCounts resumes an interrupted sweep from
// a checkpoint whose meta records 4 workers, as one written by a sweep at
// -sim-workers 4 did before the engine had a single driver: the count is
// ignored and the resumed table equals an uninterrupted run's. A sweep
// checkpoint of the removed legacy serial engine (Workers 0) is refused.
func TestAblationResumeAcrossWorkerCounts(t *testing.T) {
	ref := render(t, func(b *bytes.Buffer) error {
		_, err := AblationReport(b, 256, 8, AblationOptions{})
		return err
	})
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	variants := 0
	_, err := AblationReport(io.Discard, 256, 8, AblationOptions{Ckpt: &AblationCkpt{
		Path: path, Stop: func() bool { variants++; return variants == 2 },
	}})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted sweep returned %v, want ErrInterrupted", err)
	}
	c, err := ckpt.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Meta.Stage != 2 || c.Meta.Workers != 1 {
		t.Fatalf("sweep checkpoint meta: %+v", c.Meta)
	}
	c.Meta.Workers = 4
	if _, err := ckpt.Write(path, c); err != nil {
		t.Fatal(err)
	}
	if c, err = ckpt.Read(path); err != nil {
		t.Fatal(err)
	}
	got := render(t, func(b *bytes.Buffer) error {
		_, err := AblationReport(b, 256, 8, AblationOptions{Ckpt: &AblationCkpt{Resume: c}})
		return err
	})
	if got != ref {
		t.Errorf("resumed table differs from the uninterrupted one:\n%s\nvs\n%s", got, ref)
	}

	c.Meta.Workers = 0
	_, err = AblationReport(io.Discard, 256, 8, AblationOptions{Ckpt: &AblationCkpt{Resume: c}})
	if err == nil || !strings.Contains(err.Error(), "legacy serial engine") {
		t.Fatalf("legacy sweep checkpoint: %v, want a refusal naming the removed engine", err)
	}
}

func TestTableCSVs(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) error { return TableIVCSV(b) })
	if !strings.Contains(out, "gflops_model") || strings.Count(out, "\n") != 6 {
		t.Errorf("Table IV CSV wrong:\n%s", out)
	}
	out = render(t, func(b *bytes.Buffer) error { return TableVCSV(b) })
	if !strings.Contains(out, "vs_serial_model") || strings.Count(out, "\n") != 6 {
		t.Errorf("Table V CSV wrong:\n%s", out)
	}
}
