package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event ("Trace Event Format") export, loadable by Perfetto
// (ui.perfetto.dev) and chrome://tracing. One trace microsecond equals
// one simulated cycle; lanes are organized as three processes:
//
//	pid 1  machine   — spawn/join spans on the MTCU lane
//	pid 2  TCUs      — one lane per TCU: thread spans, segment spans,
//	                   memory-access and NoC instants
//	pid 3  counters  — epoch counter tracks (FPU/LSU/DRAM %, cache hit %,
//	                   outstanding threads, NoC packets per epoch)

// ChromeTraceEvent is one entry of the traceEvents array. The exported
// schema is intentionally minimal: name, phase, timestamp and the
// pid/tid lane coordinates, plus phase-specific fields.
type ChromeTraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON object container format.
type ChromeTrace struct {
	TraceEvents     []ChromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
	OtherData       map[string]string  `json:"otherData,omitempty"`
}

const (
	pidMachine  = 1
	pidTCUs     = 2
	pidCounters = 3
)

// meta builds a metadata ("M") event.
func meta(name string, pid, tid int, value string) ChromeTraceEvent {
	return ChromeTraceEvent{
		Name: name, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": value},
	}
}

// BuildChromeTrace converts the recorded run into the Chrome trace-event
// object. It is deterministic: identical recordings produce identical
// traces.
func (r *Recorder) BuildChromeTrace() ChromeTrace {
	evs := []ChromeTraceEvent{
		meta("process_name", pidMachine, 0, "machine"),
		meta("thread_name", pidMachine, 0, "MTCU spawn/join"),
		meta("process_name", pidTCUs, 0, "TCUs"),
		meta("process_name", pidCounters, 0, "utilization"),
	}
	for _, ev := range r.Events {
		if ev.Kind == EvFault {
			evs = append(evs, meta("thread_name", pidMachine, 1, "faults"))
			break
		}
	}

	// Name each TCU lane once, in TCU order for determinism.
	lanes := map[int32]int32{} // tcu -> cluster
	for _, ev := range r.Events {
		if ev.Kind == EvThreadStart {
			if _, ok := lanes[ev.TCU]; !ok {
				lanes[ev.TCU] = ev.Aux
			}
		}
	}
	tcus := make([]int32, 0, len(lanes))
	for tcu := range lanes {
		tcus = append(tcus, tcu)
	}
	sort.Slice(tcus, func(i, j int) bool { return tcus[i] < tcus[j] })
	for _, tcu := range tcus {
		evs = append(evs, meta("thread_name", pidTCUs, int(tcu),
			fmt.Sprintf("tcu %d (cluster %d)", tcu, lanes[tcu])))
	}

	// Spawn/join spans and per-TCU thread spans, paired in stream order.
	var spawns []Event
	threads := threadPairs{}
	for _, ev := range r.Events {
		switch ev.Kind {
		case EvSpawn:
			spawns = append(spawns, ev)
		case EvJoin:
			if len(spawns) == 0 {
				continue
			}
			sp := spawns[len(spawns)-1]
			spawns = spawns[:len(spawns)-1]
			name := sp.Label
			if name == "" {
				name = "spawn"
			}
			evs = append(evs, ChromeTraceEvent{
				Name: name, Ph: "X", Ts: float64(sp.Start),
				Dur: float64(ev.Start - sp.Start), Pid: pidMachine, Tid: 0,
				Args: map[string]any{"threads": sp.ID},
			})
		case EvThreadStart, EvThreadRetire:
			if st, ok := threads.next(&ev); ok {
				evs = append(evs, ChromeTraceEvent{
					Name: fmt.Sprintf("t%d", st.ID), Ph: "X", Ts: float64(st.Start),
					Dur: float64(ev.Start - st.Start), Pid: pidTCUs, Tid: int(ev.TCU),
					Args: map[string]any{"tid": st.ID, "cluster": st.Aux},
				})
			}
		case EvSegment:
			evs = append(evs, ChromeTraceEvent{
				Name: SegmentKind(ev.Aux).Name(), Ph: "X", Ts: float64(ev.Start),
				Dur: float64(ev.End - ev.Start), Pid: pidTCUs, Tid: int(ev.TCU),
			})
		case EvMemAccess:
			name := "mem load"
			if ev.Flags&FlagWrite != 0 {
				name = "mem store"
			}
			evs = append(evs, ChromeTraceEvent{
				Name: name, Ph: "i", Ts: float64(ev.End),
				Pid: pidTCUs, Tid: int(ev.TCU), S: "t",
				Args: map[string]any{
					"module": ev.Aux, "hit": ev.Flags&FlagHit != 0,
					"addr": ev.ID, "latency": ev.End - ev.Start,
				},
			})
		case EvNoC:
			evs = append(evs, ChromeTraceEvent{
				Name: "noc", Ph: "i", Ts: float64(ev.Start),
				Pid: pidTCUs, Tid: int(ev.TCU), S: "t",
				Args: map[string]any{"dst_module": ev.Aux, "cycles": ev.End - ev.Start},
			})
		case EvFault:
			evs = append(evs, ChromeTraceEvent{
				Name: FaultKind(ev.Aux).Name(), Ph: "i", Ts: float64(ev.Start),
				Pid: pidMachine, Tid: 1, S: "t",
				Args: map[string]any{"site": ev.TCU, "info": ev.ID},
			})
		}
	}

	// Epoch counter tracks.
	for _, s := range r.Samples {
		counter := func(name string, v float64) ChromeTraceEvent {
			return ChromeTraceEvent{
				Name: name, Ph: "C", Ts: float64(s.Cycle),
				Pid: pidCounters, Tid: 0,
				Args: map[string]any{"value": v},
			}
		}
		evs = append(evs,
			counter("fpu util %", s.FPU*100),
			counter("lsu util %", s.LSU*100),
			counter("dram util %", s.DRAM*100),
			counter("cache hit %", s.HitRate*100),
			counter("outstanding threads", float64(s.Outstanding)),
			counter("noc pkts/epoch", float64(s.NoCPackets)),
		)
	}

	label := r.Label
	if label == "" {
		label = "xmt run"
	}
	return ChromeTrace{
		TraceEvents:     evs,
		DisplayTimeUnit: "ns",
		OtherData: map[string]string{
			"run":   label,
			"clock": "1 trace us = 1 simulated cycle",
		},
	}
}

// WritePerfetto serializes the recording as Chrome trace-event JSON.
func (r *Recorder) WritePerfetto(w io.Writer) error {
	return json.NewEncoder(w).Encode(r.BuildChromeTrace())
}

// ValidateChromeTrace parses data as a Chrome trace-event JSON object
// and checks the structural invariants the exporter guarantees: a
// non-empty traceEvents array, known phase codes, named events,
// non-negative timestamps/durations, and counter events carrying a
// value. It is the schema round-trip used in tests and available to
// tooling that wants to sanity-check a trace file.
func ValidateChromeTrace(data []byte) error {
	var tr ChromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if len(tr.TraceEvents) == 0 {
		return fmt.Errorf("trace: no traceEvents")
	}
	for i, ev := range tr.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("trace: event %d has no name", i)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur < 0 {
				return fmt.Errorf("trace: event %d (%s) has negative duration", i, ev.Name)
			}
		case "i":
			if ev.S != "" && ev.S != "t" && ev.S != "p" && ev.S != "g" {
				return fmt.Errorf("trace: event %d (%s) has invalid instant scope %q", i, ev.Name, ev.S)
			}
		case "C":
			if _, ok := ev.Args["value"]; !ok {
				return fmt.Errorf("trace: counter event %d (%s) has no value", i, ev.Name)
			}
		case "M":
			if _, ok := ev.Args["name"]; !ok {
				return fmt.Errorf("trace: metadata event %d (%s) has no name arg", i, ev.Name)
			}
		default:
			return fmt.Errorf("trace: event %d (%s) has unsupported phase %q", i, ev.Name, ev.Ph)
		}
		if ev.Ts < 0 {
			return fmt.Errorf("trace: event %d (%s) has negative timestamp", i, ev.Name)
		}
	}
	return nil
}
