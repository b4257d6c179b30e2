package viz

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"

	"xmtfft/internal/stats"
)

// wellFormed decodes the SVG as XML, failing on malformed output.
func wellFormed(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed XML: %v", err)
		}
	}
}

func TestPlotRenderBasics(t *testing.T) {
	p := Plot{Title: "t < & >", XLabel: "x", YLabel: "y"}
	p.Add(Series{Name: "line", X: []float64{0.1, 1, 10}, Y: []float64{1, 10, 100}})
	p.Add(Series{Name: "dots", X: []float64{0.5, 5}, Y: []float64{2, 20}, Markers: true, Dashed: true})
	var b bytes.Buffer
	if err := p.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wellFormed(t, out)
	for _, want := range []string{"<svg", "polyline", "circle", "t &lt; &amp; &gt;", "stroke-dasharray"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Colors auto-assigned and distinct.
	if p.Series[0].Color == p.Series[1].Color {
		t.Error("palette assigned identical colors")
	}
}

func TestPlotEmptySeries(t *testing.T) {
	p := Plot{Title: "empty"}
	var b bytes.Buffer
	if err := p.Render(&b); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, b.String())
}

func TestPlotSkipsNonPositive(t *testing.T) {
	p := Plot{}
	p.Add(Series{Name: "mixed", X: []float64{-1, 0, 1, 10}, Y: []float64{1, 1, 1, 10}, Markers: true})
	var b bytes.Buffer
	if err := p.Render(&b); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, b.String())
	// Only the two positive points produce markers.
	if got := strings.Count(b.String(), "<circle"); got != 2 {
		t.Errorf("marker count = %d, want 2", got)
	}
}

func TestFig3SVG(t *testing.T) {
	var b bytes.Buffer
	if err := Fig3SVG(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wellFormed(t, out)
	for _, want := range []string{"4k roof", "128k x4 phases", "Roofline", "FLOPs/byte"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 SVG missing %q", want)
		}
	}
	// Five configs x (roof line + 3 markers): at least 15 circles.
	if got := strings.Count(out, "<circle"); got != 15 {
		t.Errorf("marker count = %d, want 15", got)
	}
	goldenCompare(t, "fig3.svg", b.Bytes())
}

func TestScalingSVG(t *testing.T) {
	var b bytes.Buffer
	if err := ScalingSVG(&b); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, b.String())
	if !strings.Contains(b.String(), "Strong scaling") {
		t.Error("missing title")
	}
	goldenCompare(t, "scaling.svg", b.Bytes())
}

func TestDecadesAndTicks(t *testing.T) {
	d := decades(0.05, 16)
	if len(d) < 3 {
		t.Fatalf("decades = %v", d)
	}
	for i := 1; i < len(d); i++ {
		if d[i] <= d[i-1] {
			t.Fatal("decades not increasing")
		}
	}
	if fmtTick(0.1) != "0.1" || fmtTick(1) != "1" {
		t.Errorf("ticks: %s %s", fmtTick(0.1), fmtTick(1))
	}
	if fmtTick(10000) != "1e4" {
		t.Errorf("big tick: %s", fmtTick(10000))
	}
}

func TestTimelineSVG(t *testing.T) {
	run := stats.Run{Label: "fft3d 32x32x32", Phases: []stats.Phase{
		{Name: "twiddle init r0", Cycles: 50, Ops: stats.Counters{FPOps: 100}},
		{Name: "fft r0 p0", Cycles: 400, Ops: stats.Counters{FPOps: 4000}},
		{Name: "rotate r0", Cycles: 250, Ops: stats.Counters{FPOps: 2000}},
	}}
	var b bytes.Buffer
	if err := TimelineSVG(&b, run); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wellFormed(t, out)
	for _, want := range []string{"700 cycles", "fused rotation", "twiddle maintenance", "#d62728"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
	if err := TimelineSVG(&b, stats.Run{}); err == nil {
		t.Error("empty run accepted")
	}
}

func TestWeakScalingSVG(t *testing.T) {
	var b bytes.Buffer
	if err := WeakScalingSVG(&b); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, b.String())
	if !strings.Contains(b.String(), "Weak scaling") {
		t.Error("missing title")
	}
	goldenCompare(t, "weak_scaling.svg", b.Bytes())
}
