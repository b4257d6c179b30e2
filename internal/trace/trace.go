// Package trace is the simulator's cycle-level observability layer: a
// Recorder collects typed events (spawn/join, thread start/retire,
// execution segments, memory accesses, NoC traversals) and periodic
// utilization samples from an instrumented xmt.Machine, and exports them
// as a Chrome trace-event / Perfetto JSON file, a plain-text phase
// summary, or raw series for SVG rendering (viz.UtilizationSVG).
//
// The recorder is strictly passive: it never schedules simulation
// events, so attaching one cannot change a run's cycle counts. The
// machine guards every emission site with a nil check, making the
// disabled path a single predictable branch (see DESIGN.md §5 for the
// zero-overhead contract).
package trace

import "sort"

// EventKind discriminates trace events.
type EventKind uint8

const (
	// EvSpawn marks the MTCU issuing a parallel section (Start = issue
	// cycle, ID = thread count, Label = section name if provided).
	EvSpawn EventKind = iota
	// EvJoin marks the join completing and serial mode resuming.
	EvJoin
	// EvThreadStart marks a virtual thread beginning on a TCU
	// (TCU, Aux = cluster, ID = thread id).
	EvThreadStart
	// EvThreadRetire marks a virtual thread completing (TCU, ID = thread
	// id).
	EvThreadRetire
	// EvSegment is one dispatched execution segment on a TCU
	// (Start..End, Aux = SegmentKind).
	EvSegment
	// EvMemAccess is one shared-memory word access (Start = arrival at
	// the module, End = completion, TCU, Aux = memory module, ID = byte
	// address, Flags = write/hit).
	EvMemAccess
	// EvNoC is one packet traversal cluster->module (Start = injection,
	// End = arrival, TCU = source cluster, Aux = destination module).
	EvNoC
	// EvFault is one fault-injection or resilience occurrence (Start =
	// End = cycle, Aux = FaultKind, TCU = site, ID = kind-specific info:
	// retry attempt, byte address, or thread count).
	EvFault
)

// Flags for EvMemAccess.
const (
	// FlagWrite marks a store (absent: load).
	FlagWrite uint8 = 1 << iota
	// FlagHit marks a cache hit.
	FlagHit
)

// SegmentKind classifies an EvSegment (mirrors xmt.OpKind for the
// segment-forming kinds; ALU runs are folded into neighbouring segments
// by the machine and are not dispatched separately).
type SegmentKind uint8

const (
	SegFLOP SegmentKind = iota
	SegPS
	SegLoad
	SegStore
)

// FaultKind classifies an EvFault occurrence.
type FaultKind uint8

const (
	// FaultNoCDrop: a request packet was lost in flight (site = source
	// cluster, ID = retry attempt number).
	FaultNoCDrop FaultKind = iota
	// FaultNoCCorrupt: a request packet arrived corrupted and was
	// rejected by the receiver.
	FaultNoCCorrupt
	// FaultNoCGiveUp: the retransmit protocol exhausted its inline
	// attempts and escalated to an event-level retry.
	FaultNoCGiveUp
	// FaultECCCorrected: DRAM single-bit error corrected by SECDED
	// (site = memory module, ID = byte address).
	FaultECCCorrected
	// FaultECCUncorrectable: DRAM double-bit error detected but not
	// correctable.
	FaultECCUncorrectable
	// FaultClusterDead: a cluster is fail-stopped and excluded from
	// thread allocation (site = cluster).
	FaultClusterDead
)

// Name returns the fault kind's display name.
func (k FaultKind) Name() string {
	switch k {
	case FaultNoCDrop:
		return "noc drop"
	case FaultNoCCorrupt:
		return "noc corrupt"
	case FaultNoCGiveUp:
		return "noc give-up"
	case FaultECCCorrected:
		return "ecc corrected"
	case FaultECCUncorrectable:
		return "ecc uncorrectable"
	case FaultClusterDead:
		return "cluster dead"
	}
	return "fault?"
}

// Name returns the segment kind's display name.
func (k SegmentKind) Name() string {
	switch k {
	case SegFLOP:
		return "flop"
	case SegPS:
		return "ps"
	case SegLoad:
		return "load"
	case SegStore:
		return "store"
	}
	return "seg?"
}

// Event is one recorded occurrence. Fields are overloaded per kind (see
// EventKind docs) to keep the struct allocation-free and cache-compact:
// a large traced run records millions of these.
type Event struct {
	Kind  EventKind
	Flags uint8
	TCU   int32
	Aux   int32
	ID    int64
	Start uint64
	End   uint64
	Label string
}

// Sample is one epoch snapshot of machine-wide resource state, taken
// every Recorder.Epoch cycles. Utilization fields are fractions of the
// epoch's available slots (0..1) consumed during the epoch.
type Sample struct {
	Cycle       uint64  // epoch end cycle
	FPU         float64 // cluster FPU occupancy
	LSU         float64 // cluster LSU (NoC injection port) occupancy
	DRAM        float64 // DRAM channel busy fraction
	HitRate     float64 // cache hit rate over the epoch (1 if no accesses)
	Outstanding int     // section work remaining: running + unallocated threads
	NoCPackets  uint64  // packets injected during the epoch
}

// Recorder accumulates a run's events and epoch samples. It is not safe
// for concurrent use; the simulator is single-threaded by design and the
// recorder inherits that discipline.
type Recorder struct {
	// Label names the run in exports (e.g. the configuration name).
	Label string
	// Epoch is the sampling interval in cycles (0 disables sampling).
	Epoch uint64

	Events  []Event
	Samples []Sample
}

// NewRecorder returns a recorder sampling utilization every epoch cycles
// (0 records events only).
func NewRecorder(epoch uint64) *Recorder {
	return &Recorder{Epoch: epoch}
}

// Spawn records a parallel section being issued.
func (r *Recorder) Spawn(cycle uint64, threads int, label string) {
	r.Events = append(r.Events, Event{
		Kind: EvSpawn, Start: cycle, End: cycle, ID: int64(threads), Label: label})
}

// Join records the section's join completing.
func (r *Recorder) Join(cycle uint64) {
	r.Events = append(r.Events, Event{Kind: EvJoin, Start: cycle, End: cycle})
}

// ThreadStart records virtual thread tid beginning on a TCU.
func (r *Recorder) ThreadStart(cycle uint64, tcu, cl, tid int) {
	r.Events = append(r.Events, Event{
		Kind: EvThreadStart, Start: cycle, End: cycle,
		TCU: int32(tcu), Aux: int32(cl), ID: int64(tid)})
}

// ThreadRetire records virtual thread tid completing on a TCU.
func (r *Recorder) ThreadRetire(cycle uint64, tcu, tid int) {
	r.Events = append(r.Events, Event{
		Kind: EvThreadRetire, Start: cycle, End: cycle,
		TCU: int32(tcu), ID: int64(tid)})
}

// Segment records one dispatched execution segment.
func (r *Recorder) Segment(start, end uint64, tcu int, kind SegmentKind) {
	r.Events = append(r.Events, Event{
		Kind: EvSegment, Start: start, End: end, TCU: int32(tcu), Aux: int32(kind)})
}

// MemAccess records one shared-memory word access.
func (r *Recorder) MemAccess(arrive, done uint64, tcu, module int, addr uint64, write, hit bool) {
	var f uint8
	if write {
		f |= FlagWrite
	}
	if hit {
		f |= FlagHit
	}
	r.Events = append(r.Events, Event{
		Kind: EvMemAccess, Flags: f, Start: arrive, End: done,
		TCU: int32(tcu), Aux: int32(module), ID: int64(addr)})
}

// NoC records one packet traversal from source cluster to destination
// memory module.
func (r *Recorder) NoC(inject, arrive uint64, srcCluster, dstModule int) {
	r.Events = append(r.Events, Event{
		Kind: EvNoC, Start: inject, End: arrive,
		TCU: int32(srcCluster), Aux: int32(dstModule)})
}

// Fault records one fault-injection or resilience occurrence at the
// given cycle. site identifies the affected component (cluster or
// memory module per kind); info carries the kind-specific payload
// documented on the FaultKind constants.
func (r *Recorder) Fault(cycle uint64, kind FaultKind, site int, info uint64) {
	r.Events = append(r.Events, Event{
		Kind: EvFault, Start: cycle, End: cycle,
		Aux: int32(kind), TCU: int32(site), ID: int64(info)})
}

// AddSample appends one epoch sample.
func (r *Recorder) AddSample(s Sample) {
	r.Samples = append(r.Samples, s)
}

// MergeFrom folds the events of the given part recorders into r in
// deterministic order — sorted by event start cycle, ties broken by part
// rank (position in the argument list) and then by the event's position
// within its part. The sharded machine gives each shard its own
// recorder during a parallel section and merges them here at the join,
// so the exported stream is one ordered sequence regardless of how many
// shards (or workers) produced it. Part ranks must therefore be stable
// across runs (e.g. shard index), or determinism is lost.
//
// Nil parts are skipped. Parts are expected to carry events only (no
// samples): epoch samples are produced centrally at window barriers and
// appended directly.
func (r *Recorder) MergeFrom(parts ...*Recorder) {
	type tagged struct {
		rank, idx int
	}
	var tags []tagged
	for rank, p := range parts {
		if p == nil {
			continue
		}
		for idx := range p.Events {
			tags = append(tags, tagged{rank, idx})
		}
	}
	sort.Slice(tags, func(i, j int) bool {
		a, b := tags[i], tags[j]
		sa, sb := parts[a.rank].Events[a.idx].Start, parts[b.rank].Events[b.idx].Start
		if sa != sb {
			return sa < sb
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.idx < b.idx
	})
	for _, t := range tags {
		r.Events = append(r.Events, parts[t.rank].Events[t.idx])
	}
}

// threadPairs pairs each EvThreadRetire with the EvThreadStart that
// opened a thread on the same TCU, walking the stream in order. The
// Perfetto thread spans and the summary's thread lifetimes both come
// from it, so they always describe the same threads.
type threadPairs map[int32]Event

// next feeds one event; for a retire that closes an open thread it
// returns that thread's start event and true.
func (o threadPairs) next(ev *Event) (Event, bool) {
	switch ev.Kind {
	case EvThreadStart:
		o[ev.TCU] = *ev
	case EvThreadRetire:
		if start, ok := o[ev.TCU]; ok {
			delete(o, ev.TCU)
			return start, true
		}
	}
	return Event{}, false
}

// section is a spawn..join interval reconstructed from the event stream.
type section struct {
	label   string
	start   uint64
	end     uint64
	threads int64 // declared thread count from the spawn event
	starts  uint64
	mem     uint64
	hits    uint64
	noc     uint64
}

// sections reconstructs spawn..join intervals, attributing intervening
// thread/memory/NoC events to the enclosing section. Events outside any
// section (there are none in well-formed traces) are dropped.
func (r *Recorder) sections() []section {
	var out []section
	var cur *section
	for i := range r.Events {
		ev := &r.Events[i]
		switch ev.Kind {
		case EvSpawn:
			out = append(out, section{label: ev.Label, start: ev.Start, threads: ev.ID})
			cur = &out[len(out)-1]
		case EvJoin:
			if cur != nil {
				cur.end = ev.Start
				cur = nil
			}
		case EvThreadStart:
			if cur != nil {
				cur.starts++
			}
		case EvMemAccess:
			if cur != nil {
				cur.mem++
				if ev.Flags&FlagHit != 0 {
					cur.hits++
				}
			}
		case EvNoC:
			if cur != nil {
				cur.noc++
			}
		}
	}
	return out
}
