package metrics

import (
	"strings"
	"testing"
)

func encode(t *testing.T, reg *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return sb.String()
}

func TestEncodeGoldenShape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_events", "Total events.")
	c.Set(12)
	v := reg.GaugeVec("test_depth", "Queue depth.", "shard")
	v.With("0").Set(3)
	v.With("1").Set(4.5)
	h := reg.Histogram("test_lat", "Latency.", 1, 2)
	h.Observe(0.5)
	h.Observe(3)

	want := `# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth{shard="0"} 3
test_depth{shard="1"} 4.5
# HELP test_events Total events.
# TYPE test_events counter
test_events_total 12
# HELP test_lat Latency.
# TYPE test_lat histogram
test_lat_bucket{le="1"} 1
test_lat_bucket{le="2"} 1
test_lat_bucket{le="+Inf"} 2
test_lat_count 2
test_lat_sum 3.5
# EOF
`
	if got := encode(t, reg); got != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("test_ops", "Ops by kind.", "kind")
	c.With("fp").Set(123456789)
	c.With("alu").Set(42)
	g := reg.Gauge("test_util", "Utilization.")
	g.Set(0.123456789012345) // exercises shortest round-trip float formatting
	h := reg.Histogram("test_lat", "Latency.", 0.5, 2.5, 10)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) / 7.0)
	}
	text := encode(t, reg)
	exp, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if got, ok := exp.Value("test_ops_total", map[string]string{"kind": "fp"}); !ok || got != 123456789 {
		t.Fatalf("test_ops_total{kind=fp} = %g, %v", got, ok)
	}
	if got, ok := exp.Value("test_util", nil); !ok || got != 0.123456789012345 {
		t.Fatalf("test_util = %.17g, %v — float not bit-identical after round trip", got, ok)
	}
	if got, ok := exp.Value("test_lat_count", nil); !ok || got != 100 {
		t.Fatalf("test_lat_count = %g, %v", got, ok)
	}
	if got, ok := exp.Value("test_lat_sum", nil); !ok || got != h.Sum() {
		t.Fatalf("test_lat_sum = %.17g, want %.17g", got, h.Sum())
	}
	if got, ok := exp.Value("test_lat_bucket", map[string]string{"le": "+Inf"}); !ok || got != 100 {
		t.Fatalf("+Inf bucket = %g, %v", got, ok)
	}
	fam := exp.Family("test_lat")
	if fam == nil || fam.Type != TypeHistogram || fam.Help != "Latency." {
		t.Fatalf("family metadata lost: %+v", fam)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"missing EOF":        "# TYPE a gauge\na 1\n",
		"content after EOF":  "# EOF\n# TYPE a gauge\n",
		"sample before TYPE": "a 1\n# EOF\n",
		"unknown type":       "# TYPE a widget\n# EOF\n",
		"summary type":       "# TYPE a summary\na{quantile=\"0.5\"} 1\n# EOF\n",
		"duplicate family":   "# TYPE a gauge\n# TYPE a gauge\n# EOF\n",
		"foreign sample":     "# TYPE a gauge\nb 1\n# EOF\n",
		"counter no _total":  "# TYPE a counter\na 1\n# EOF\n",
		"bucket missing le":  "# TYPE a histogram\na_bucket 1\n# EOF\n",
		"bad value":          "# TYPE a gauge\na x\n# EOF\n",
		"unterminated label": "# TYPE a gauge\na{x=\"y 1\n# EOF\n",
		"unquoted label":     "# TYPE a gauge\na{x=y} 1\n# EOF\n",
		"duplicate label":    "# TYPE a gauge\na{x=\"1\",x=\"2\"} 1\n# EOF\n",
		"blank line":         "# TYPE a gauge\n\na 1\n# EOF\n",
		"orphan HELP":        "# HELP a x\n# TYPE b gauge\nb 1\n# EOF\n",
	}
	for name, doc := range cases {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected parse error for %q", name, doc)
		}
	}
}

func TestParseEscapedLabelValues(t *testing.T) {
	reg := NewRegistry()
	v := reg.GaugeVec("test_g", "x", "path")
	raw := `quo"te\back` + "\nnl"
	v.With(raw).Set(1)
	text := encode(t, reg)
	exp, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if got, ok := exp.Value("test_g", map[string]string{"path": raw}); !ok || got != 1 {
		t.Fatalf("escaped label value did not round-trip: %q %v", raw, ok)
	}
}
