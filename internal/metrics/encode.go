package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ContentType is the HTTP Content-Type for the exposition produced by
// WriteOpenMetrics.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics renders the registry as OpenMetrics text: families
// in sorted name order, children in creation order, `# HELP` and
// `# TYPE` headers, counter samples with the `_total` suffix,
// histogram `_bucket{le=...}`/`_count`/`_sum` expansion, and the
// terminating `# EOF` line. Floats use
// shortest round-trip formatting so the in-repo parser reads back
// bit-identical values (asserted by the round-trip tests).
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	bw := &errWriter{w: w}
	for _, f := range r.snapshotFamilies() {
		f.mu.RLock()
		children := append([]*child(nil), f.children...)
		f.mu.RUnlock()
		if len(children) == 0 {
			continue // labeled family with no children yet
		}
		if f.help != "" {
			bw.printf("# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		bw.printf("# TYPE %s %s\n", f.name, f.typ)
		for _, c := range children {
			writeChild(bw, f, c)
		}
	}
	bw.printf("# EOF\n")
	return bw.err
}

func writeChild(bw *errWriter, f *family, c *child) {
	base := labelString(f.labelNames, c.labelValues, "", "")
	switch f.typ {
	case TypeCounter:
		bw.printf("%s_total%s %s\n", f.name, base, formatUint(c.counter.Value()))
	case TypeGauge:
		bw.printf("%s%s %s\n", f.name, base, formatFloat(c.gauge.Value()))
	case TypeHistogram:
		counts := c.hist.bucketCounts()
		var cum uint64
		for i, n := range counts {
			cum += n
			le := "+Inf"
			if i < len(f.bounds) {
				le = formatFloat(f.bounds[i])
			}
			bw.printf("%s_bucket%s %s\n", f.name,
				labelString(f.labelNames, c.labelValues, "le", le), formatUint(cum))
		}
		bw.printf("%s_count%s %s\n", f.name, base, formatUint(c.hist.Count()))
		bw.printf("%s_sum%s %s\n", f.name, base, formatFloat(c.hist.Sum()))
	}
}

// labelString renders `{a="x",b="y"}` (empty string when no labels),
// with an optional extra reserved label (a histogram's le) appended.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(extraValue))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat uses shortest round-trip formatting; integral values
// still parse back exactly, and the parser uses ParseFloat so every
// emitted value survives encode→parse bit-identically.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

// errWriter latches the first write error so the encoder body stays
// free of per-line error plumbing.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
