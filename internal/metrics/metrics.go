// Package metrics is the repo's live-observability registry: a small
// metric system in the Prometheus/OpenMetrics mold that imports only
// the standard library — counters, gauges and fixed-bucket histograms,
// each optionally labeled — exposed through a strict OpenMetrics text
// encoder (encode.go) and a matching parser (parse.go) used by tests
// and CI to validate every exposition.
//
// It complements internal/trace: trace records a run for post-mortem
// export, metrics publishes the same signals *while the run is going*,
// scraped over HTTP or snapshotted to disk. The simulator's series are
// registered by xmt.NewMetricSet and the transform service's by
// internal/serve; this package knows neither.
//
// Concurrency and cost contract: every value is a single atomic word
// (or a short array of them), so instrumented code may write from the
// simulation goroutines while an HTTP scrape reads concurrently, with
// no locks on the hot path. Counter.Add/Set, Gauge.Set and
// Histogram.Observe are allocation-free (asserted by tests and the
// benchmark pair in bench_test.go); registries and label children are
// built once at setup and cached by callers. Hot code holds the typed
// handle — Vec.With is a setup/scrape-time lookup, not a per-event one.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Type discriminates metric families.
type Type uint8

const (
	TypeCounter Type = iota
	TypeGauge
	TypeHistogram
)

// String returns the OpenMetrics type keyword.
func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing value. Add increments; Set
// jumps to a cumulative total owned elsewhere (xmt.MetricSet uses it to
// mirror the simulator's own tallies — a fresh machine resets the
// total, which is ordinary counter-reset semantics for scrapers).
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set stores a cumulative total (bridging a counter owned elsewhere).
func (c *Counter) Set(total uint64) { c.v.Store(total) }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetUint stores an integer value (convenience for cycle counts).
func (g *Gauge) SetUint(v uint64) { g.Set(float64(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets with
// upper bounds le (an implicit +Inf bucket is always present), keeping
// the observation count and sum. Observe is lock-free and
// allocation-free; bucket bounds are fixed at construction.
type Histogram struct {
	bounds  []float64 // sorted strictly-increasing finite upper bounds
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// bucketCounts returns the per-bucket (non-cumulative) counts,
// len(bounds)+1 entries with the +Inf bucket last.
func (h *Histogram) bucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// child is one labeled instance inside a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is one named metric with a fixed type and label schema.
type family struct {
	name       string
	help       string
	typ        Type
	labelNames []string
	bounds     []float64 // histogram bucket bounds

	mu       sync.RWMutex
	children []*child // creation order (deterministic exposition)
	index    map[string]*child
}

// newChild builds the typed value holder for this family.
func (f *family) newChild(values []string) *child {
	c := &child{labelValues: values}
	switch f.typ {
	case TypeCounter:
		c.counter = &Counter{}
	case TypeGauge:
		c.gauge = &Gauge{}
	case TypeHistogram:
		c.hist = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	return c
}

// with returns the child for the given label values, creating it on
// first use. Creation locks; lookups take a read lock. Callers on hot
// paths cache the returned handle.
func (f *family) with(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s: %d label values for %d label names", f.name, len(values), len(f.labelNames)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	c := f.index[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.index[key]; c != nil {
		return c
	}
	vals := make([]string, len(values))
	copy(vals, values)
	c = f.newChild(vals)
	f.children = append(f.children, c)
	f.index[key] = c
	return c
}

// CounterVec is a counter family with labels.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values, creating it on
// first use. Cache the handle on hot paths.
func (v *CounterVec) With(values ...string) *Counter { return v.fam.with(values).counter }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values, creating it on
// first use. Cache the handle on hot paths.
func (v *GaugeVec) With(values ...string) *Gauge { return v.fam.with(values).gauge }

// HistogramVec is a histogram family with labels; every child shares
// the family's bucket bounds.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values, creating it on
// first use. Cache the handle on hot paths.
func (v *HistogramVec) With(values ...string) *Histogram { return v.fam.with(values).hist }

// Registry holds metric families and renders them as OpenMetrics text.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // sorted family names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register validates and installs a family; duplicate or invalid names
// are programmer errors and panic.
func (r *Registry) register(name, help string, typ Type, labels, reserved []string) *family {
	if err := validateName(name, typ); err != nil {
		panic("metrics: " + err.Error())
	}
	for _, l := range labels {
		if err := validateLabel(l); err != nil {
			panic("metrics: " + err.Error())
		}
		for _, res := range reserved {
			if l == res {
				panic(fmt.Sprintf("metrics: %s: label %q is reserved for this metric type", name, l))
			}
		}
	}
	f := &family{name: name, help: help, typ: typ, labelNames: labels, index: make(map[string]*child)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.families[name] = f
	i := sort.SearchStrings(r.names, name)
	r.names = append(r.names, "")
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = name
	return f
}

// Counter registers an unlabeled counter. The exposition appends the
// OpenMetrics "_total" suffix; register the bare name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, TypeCounter, nil, nil)
	return f.with(nil).counter
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, TypeCounter, labels, nil)}
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, TypeGauge, nil, nil)
	return f.with(nil).gauge
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, TypeGauge, labels, nil)}
}

// Histogram registers an unlabeled histogram with the given strictly
// increasing finite bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	f := r.register(name, help, TypeHistogram, nil, []string{"le"})
	f.bounds = checkBounds(bounds)
	return f.with(nil).hist
}

// HistogramVec registers a histogram family with the given bucket
// bounds and label names.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	f := r.register(name, help, TypeHistogram, labels, []string{"le"})
	f.bounds = checkBounds(bounds)
	return &HistogramVec{fam: f}
}

// checkBounds validates histogram bucket bounds and returns a private
// copy.
func checkBounds(bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic("metrics: histogram bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly increasing")
		}
	}
	return append([]float64(nil), bounds...)
}

// snapshotFamilies returns the families in name order (for encoding).
func (r *Registry) snapshotFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.names))
	for _, n := range r.names {
		out = append(out, r.families[n])
	}
	return out
}

// metric-name and label-name validation (the OpenMetrics charset).

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// reservedSuffixes are sample-name suffixes the encoder owns; family
// names must not collide with them or expositions become ambiguous.
var reservedSuffixes = []string{"_total", "_count", "_sum", "_bucket", "_created"}

func validateName(name string, typ Type) error {
	if !validName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	for _, suf := range reservedSuffixes {
		if strings.HasSuffix(name, suf) {
			return fmt.Errorf("metric name %q ends in reserved suffix %q", name, suf)
		}
	}
	return nil
}

func validateLabel(name string) error {
	if !validName(name) || strings.Contains(name, ":") {
		return fmt.Errorf("invalid label name %q", name)
	}
	if strings.HasPrefix(name, "__") {
		return fmt.Errorf("label name %q is reserved", name)
	}
	return nil
}
