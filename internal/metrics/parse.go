package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file is a strict parser for the OpenMetrics text subset emitted
// by WriteOpenMetrics. It exists for tests and CI: every exposition the
// repo serves is parsed back and compared, so format drift in the
// encoder is caught by the parser and vice versa. It is deliberately
// strict — unknown syntax is an error, not a skip — because its job is
// validation, not interoperability with arbitrary scrapers.

// Sample is one parsed sample line.
type Sample struct {
	Name   string            // full sample name, including _total/_bucket/... suffixes
	Labels map[string]string // nil when the line has no labels
	Value  float64
}

// Family is one parsed metric family.
type Family struct {
	Name    string
	Help    string
	Type    Type
	Samples []Sample
}

// Exposition is a parsed OpenMetrics text document.
type Exposition struct {
	Families []Family // in document order
}

// Family returns the named family, or nil.
func (e *Exposition) Family(name string) *Family {
	for i := range e.Families {
		if e.Families[i].Name == name {
			return &e.Families[i]
		}
	}
	return nil
}

// Value returns the value of the sample with the given full name whose
// labels exactly match want (order-insensitive; nil matches a
// label-less sample). The second result reports whether it was found.
func (e *Exposition) Value(name string, want map[string]string) (float64, bool) {
	for i := range e.Families {
		for _, s := range e.Families[i].Samples {
			if s.Name == name && labelsEqual(s.Labels, want) {
				return s.Value, true
			}
		}
	}
	return 0, false
}

func labelsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Parse reads a strict OpenMetrics text document: optional `# HELP`
// then mandatory `# TYPE` per family, sample lines attributed to the
// most recent TYPE, and a mandatory terminal `# EOF`. Sample names
// must be the family name plus a suffix valid for the family's type.
func Parse(r io.Reader) (*Exposition, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	exp := &Exposition{}
	var cur *Family
	pendingHelp := ""
	pendingHelpName := ""
	sawEOF := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if sawEOF {
			return nil, fmt.Errorf("line %d: content after # EOF", lineNo)
		}
		if line == "" {
			return nil, fmt.Errorf("line %d: blank line not allowed", lineNo)
		}
		if line == "# EOF" {
			sawEOF = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := line[len("# HELP "):]
			name, help, ok := strings.Cut(rest, " ")
			if !ok || !validName(name) {
				return nil, fmt.Errorf("line %d: malformed HELP line", lineNo)
			}
			pendingHelpName, pendingHelp = name, unescapeHelp(help)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := line[len("# TYPE "):]
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || !validName(name) {
				return nil, fmt.Errorf("line %d: malformed TYPE line", lineNo)
			}
			typ, err := parseType(kind)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if exp.Family(name) != nil {
				return nil, fmt.Errorf("line %d: duplicate family %q", lineNo, name)
			}
			fam := Family{Name: name, Type: typ}
			if pendingHelpName == name {
				fam.Help = pendingHelp
			} else if pendingHelpName != "" {
				return nil, fmt.Errorf("line %d: HELP for %q not followed by its TYPE", lineNo, pendingHelpName)
			}
			pendingHelpName, pendingHelp = "", ""
			exp.Families = append(exp.Families, fam)
			cur = &exp.Families[len(exp.Families)-1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("line %d: unknown comment %q", lineNo, line)
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: sample before any # TYPE", lineNo)
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if err := checkSampleName(cur, s); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		cur.Samples = append(cur.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEOF {
		return nil, fmt.Errorf("missing terminal # EOF")
	}
	return exp, nil
}

func parseType(s string) (Type, error) {
	switch s {
	case "counter":
		return TypeCounter, nil
	case "gauge":
		return TypeGauge, nil
	case "histogram":
		return TypeHistogram, nil
	}
	return 0, fmt.Errorf("unknown metric type %q", s)
}

// checkSampleName validates that a sample line belongs to the family
// it appears under, per the type's allowed suffixes.
func checkSampleName(f *Family, s Sample) error {
	suffix, ok := strings.CutPrefix(s.Name, f.Name)
	if !ok {
		return fmt.Errorf("sample %q outside family %q", s.Name, f.Name)
	}
	var allowed []string
	switch f.Type {
	case TypeCounter:
		allowed = []string{"_total"}
	case TypeGauge:
		allowed = []string{""}
	case TypeHistogram:
		allowed = []string{"_bucket", "_count", "_sum"}
	}
	for _, a := range allowed {
		if suffix == a {
			if f.Type == TypeHistogram && suffix == "_bucket" {
				if _, ok := s.Labels["le"]; !ok {
					return fmt.Errorf("histogram bucket sample missing le label")
				}
			}
			return nil
		}
	}
	return fmt.Errorf("sample suffix %q not valid for %s family %q", suffix, f.Type, f.Name)
}

// parseSample parses `name{a="b",...} value`.
func parseSample(line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s.Name = line[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := findLabelEnd(rest)
		if end < 0 {
			return s, fmt.Errorf("unterminated label set")
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	if !strings.HasPrefix(rest, " ") {
		return s, fmt.Errorf("missing space before value")
	}
	valStr := rest[1:]
	if valStr == "" || strings.Contains(valStr, " ") {
		return s, fmt.Errorf("malformed value %q", valStr)
	}
	v, err := parseValue(valStr)
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

// findLabelEnd returns the index of the closing '}' of a label set
// starting at s[0]=='{', honouring quoted strings with escapes.
func findLabelEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++ // skip escaped char
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return i
		}
	}
	return -1
}

func parseLabels(s string) (map[string]string, error) {
	labels := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed label pair in %q", s)
		}
		name := s[:eq]
		if validateLabel(name) != nil {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("label value for %q not quoted", name)
		}
		val, rest, err := parseQuoted(s)
		if err != nil {
			return nil, err
		}
		if _, dup := labels[name]; dup {
			return nil, fmt.Errorf("duplicate label %q", name)
		}
		labels[name] = val
		s = rest
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			if s == "" {
				return nil, fmt.Errorf("trailing comma in label set")
			}
		} else if s != "" {
			return nil, fmt.Errorf("garbage after label value: %q", s)
		}
	}
	return labels, nil
}

// parseQuoted consumes a leading quoted string and returns its
// unescaped value plus the remainder.
func parseQuoted(s string) (string, string, error) {
	var sb strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case 'n':
				sb.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
		case '"':
			return sb.String(), s[i+1:], nil
		default:
			sb.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string")
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed value %q", s)
	}
	return v, nil
}

func unescapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\n`, "\n")
	return strings.ReplaceAll(s, `\\`, `\`)
}
