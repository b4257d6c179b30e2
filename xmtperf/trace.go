package main

// Span recording for the traced run. Spans are taken by the
// benchmark's own code around its calls into each layer, kept in
// memory and written at the end as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open. A nil *recorder records nothing,
// so untraced runs pay one nil check per call site.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

type span struct {
	Name   string
	Layer  string
	Start  time.Duration // since the recorder's origin
	End    time.Duration
	ID     int
	Parent int // 0 for a root span
	Track  int // one track per goroutine of the benchmark
}

type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id; end closes it. Both are no-ops
// returning 0 on a nil recorder.
func (r *recorder) begin(layer, name string, parent, track int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Start: now, End: -1,
		ID: len(r.spans) + 1, Parent: parent, Track: track})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// trackOf returns the track of span id, so that a span begun on
// another goroutine (the server's handler) nests under its parent.
func (r *recorder) trackOf(id int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 1 || id > len(r.spans) {
		return 0
	}
	return r.spans[id-1].Track
}

// add records an already-measured interval [start, end) as a span.
func (r *recorder) add(layer, name string, start, end time.Time, parent, track int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Layer: layer,
		Start: start.Sub(r.origin), End: end.Sub(r.origin),
		ID: len(r.spans) + 1, Parent: parent, Track: track})
	return len(r.spans)
}

// closed returns a copy of the finished spans.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part of each span that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, v := range iv {
		if v[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeChrome writes spans as Chrome trace-event JSON ("X" complete
// events in microseconds, one thread per track) with each layer's self
// time in the metadata.
func writeChrome(w io.Writer, spans []span, label string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": label}}}
	for _, s := range spans {
		events = append(events, event{Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Track, Args: map[string]any{"id": s.ID, "parent": s.Parent}})
	}
	self := map[string]float64{}
	for l, d := range selfTimes(spans) {
		self[l] = d.Seconds()
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events,
		"displayTimeUnit": "ms", "otherData": map[string]any{"self_time_s": self}}); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
