package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"xmtfft/internal/metrics"
	"xmtfft/internal/xmt"
)

// Obs is the live observability surface for a long simulation run: one
// metrics registry holding the series the machine's live sampler
// publishes (ops, faults, utilization and the engine's state;
// xmt.MetricSet) and a few wall-clock series computed at scrape time
// (uptime, event rates, heartbeat age). It serves /metrics
// (OpenMetrics), /progress (JSON with events/sec and an ETA) and
// /debug/pprof/*, and can mirror the exposition to a snapshot file on a
// timer so a run survives scrape outages.
//
// One Obs outlives the machines it watches: Watch may be called once
// per ablation variant, and every machine series then reads the newly
// attached machine's own tallies, as a counter reset.
type Obs struct {
	Registry *metrics.Registry
	Machines *xmt.MetricSet

	// Epoch is the live sampling stride in simulated cycles passed to
	// AttachLiveMetrics by Watch; zero means the machine default.
	Epoch uint64

	start time.Time

	// Wall-clock scrape-side series.
	uptime     *metrics.Gauge
	eventRate  *metrics.Gauge
	wdAge      *metrics.Gauge
	workDoneG  *metrics.Gauge
	workTotalG *metrics.Gauge
	shardRate  *metrics.GaugeVec

	// Checkpoint series, fed by RecordCheckpoint.
	ckptWrites    *metrics.Counter
	ckptBytes     *metrics.Counter
	ckptLastCycle *metrics.Gauge

	mu         sync.Mutex
	machine    *xmt.Machine
	prevTime   time.Time
	prevEvents uint64
	rate       float64
	prevShard  []uint64
	shardRateV []float64
	chRate     []*metrics.Gauge // shardRate children, indexed by shard
	workDone   int
	workTotal  int
	// workBase and workSince are the done count and the time at SetWork:
	// the ETA extrapolates only from units this process finished.
	workBase  int
	workSince time.Time

	srv      *http.Server
	ln       net.Listener
	snapStop chan struct{}
	snapDone chan struct{}
}

// NewObs builds an observability surface with all series registered.
func NewObs() *Obs {
	reg := metrics.NewRegistry()
	o := &Obs{
		Registry: reg,
		Machines: xmt.NewMetricSet(reg),
		start:    time.Now(),

		uptime:     reg.Gauge("xmtfft_uptime_seconds", "Wall-clock seconds since the observability surface was created."),
		eventRate:  reg.Gauge("xmtfft_sim_events_per_second", "Event execution rate over the last scrape interval."),
		wdAge:      reg.Gauge("xmtfft_watchdog_heartbeat_age_seconds", "Wall-clock age of the live sampler's last publish; NaN before the first."),
		workDoneG:  reg.Gauge("xmtfft_work_done", "Completed work units of the current job (e.g. ablation variants)."),
		workTotalG: reg.Gauge("xmtfft_work_units", "Total work units of the current job; 0 when unknown."),
		shardRate:  reg.GaugeVec("xmtfft_sim_shard_events_per_second", "Per-shard event execution rate over the last scrape interval.", "shard"),

		ckptWrites:    reg.Counter("xmtfft_ckpt_writes", "Checkpoint files written by this run."),
		ckptBytes:     reg.Counter("xmtfft_ckpt_bytes", "Total bytes of checkpoint data written by this run."),
		ckptLastCycle: reg.Gauge("xmtfft_ckpt_last_cycle", "Simulated cycle of the most recent checkpoint (0 before the first)."),
	}
	o.wdAge.Set(math.NaN())
	o.prevTime = o.start
	return o
}

// StartObs starts the simulator CLIs' -serve-obs/-obs-snapshot surface.
// It returns nil when addr and snapshot are both empty. Otherwise the
// Obs samples every epoch simulated cycles, serves on addr when that is
// set and mirrors the exposition to the snapshot path every interval
// when that is set; the caller closes it.
func StartObs(addr, snapshot string, every time.Duration, epoch uint64) (*Obs, error) {
	if addr == "" && snapshot == "" {
		return nil, nil
	}
	obs := NewObs()
	obs.Epoch = epoch
	if addr != "" {
		bound, err := obs.Serve(addr)
		if err != nil {
			return nil, err
		}
		slog.Info("observability server listening", "addr", bound,
			"endpoints", "/metrics /progress /debug/pprof/")
	}
	if snapshot != "" {
		obs.StartSnapshots(snapshot, every, func(err error) {
			slog.Warn("metrics snapshot failed", "err", err)
		})
	}
	return obs, nil
}

// Watch attaches the surface to a machine: live metrics sampling every
// o.Epoch cycles, and the machine's phase label visible to /progress.
// Call again for each new machine in a sweep; the series then mirror
// the new machine.
func (o *Obs) Watch(m *xmt.Machine) {
	m.AttachLiveMetrics(o.Machines, o.Epoch)
	o.mu.Lock()
	o.machine = m
	o.mu.Unlock()
}

// SetWork declares the job's total work units and how many of them are
// already done (a resumed sweep's finished variants). The /progress ETA
// extrapolates from the units finished after this call only, and is -1
// until the first of them.
func (o *Obs) SetWork(total, done int) {
	o.mu.Lock()
	o.workDone, o.workTotal = done, total
	o.workBase, o.workSince = done, time.Now()
	o.mu.Unlock()
}

// AddWork marks n more work units complete.
func (o *Obs) AddWork(n int) {
	o.mu.Lock()
	o.workDone += n
	o.mu.Unlock()
}

// RecordCheckpoint accounts one durable checkpoint write: size in bytes
// and the simulated cycle it captured. Safe to call concurrently with
// scrapes.
func (o *Obs) RecordCheckpoint(bytes int64, cycle uint64) {
	o.ckptWrites.Add(1)
	o.ckptBytes.Add(uint64(bytes))
	o.ckptLastCycle.SetUint(cycle)
}

// Refresh recomputes the series that need the wall clock: uptime, the
// total and per-shard event rates and the heartbeat age. Handlers call
// it before every encode; it is cheap (a few dozen atomic loads) and
// safe to call concurrently with the simulation.
func (o *Obs) Refresh() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.refresh(time.Now())
}

// refresh does Refresh's work under o.mu and returns the engine state
// it read, with the time of its publish.
func (o *Obs) refresh(now time.Time) (xmt.EngineSample, time.Time) {
	e, published := o.Machines.Engine()
	o.uptime.Set(now.Sub(o.start).Seconds())
	if !published.IsZero() {
		o.wdAge.Set(now.Sub(published).Seconds())
	}
	o.workDoneG.Set(float64(o.workDone))
	o.workTotalG.Set(float64(o.workTotal))

	// Rates use the interval since the previous refresh; sub-millisecond
	// intervals (back-to-back scrapes) keep the previous value instead of
	// amplifying noise.
	dt := now.Sub(o.prevTime).Seconds()
	for i := len(o.chRate); i < len(e.Shards); i++ {
		o.chRate = append(o.chRate, o.shardRate.With(strconv.Itoa(i)))
		o.prevShard = append(o.prevShard, 0)
		o.shardRateV = append(o.shardRateV, 0)
	}
	for i, sh := range e.Shards {
		if dt >= 1e-3 {
			o.shardRateV[i] = rate(sh.Events, o.prevShard[i], dt)
			o.prevShard[i] = sh.Events
		}
		o.chRate[i].Set(o.shardRateV[i])
	}
	if dt >= 1e-3 {
		o.rate = rate(e.Events, o.prevEvents, dt)
		o.prevEvents = e.Events
		o.prevTime = now
	}
	o.eventRate.Set(o.rate)
	return e, published
}

// rate is the per-second increase of a count read dt seconds after
// prev. A count below prev belongs to a freshly attached machine, which
// counted from zero, so a rate is never negative.
func rate(count, prev uint64, dt float64) float64 {
	if count < prev {
		prev = 0
	}
	return float64(count-prev) / dt
}

// Progress is the /progress JSON document.
type Progress struct {
	UptimeSec       float64 `json:"uptime_sec"`
	Phase           string  `json:"phase,omitempty"`
	Cycle           uint64  `json:"cycle"`
	Events          uint64  `json:"events"`
	EventsPerSec    float64 `json:"events_per_sec"`
	PendingEvents   uint64  `json:"pending_events"`
	Windows         uint64  `json:"windows"`
	Messages        uint64  `json:"messages"`
	Shards          int     `json:"shards"`
	HeartbeatAgeSec float64 `json:"heartbeat_age_sec"` // -1 before the first publish
	WatchdogCycle   uint64  `json:"watchdog_cycle"`
	WorkDone        int     `json:"work_done"`
	WorkTotal       int     `json:"work_total"`
	ETASec          float64 `json:"eta_sec"` // -1 when unknown
}

// Progress assembles the current progress document from the machine
// series (refreshing rates first).
func (o *Obs) Progress() Progress {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := time.Now()
	e, published := o.refresh(now)
	p := Progress{
		UptimeSec:       now.Sub(o.start).Seconds(),
		Cycle:           e.Cycle,
		Events:          e.Events,
		EventsPerSec:    o.rate,
		PendingEvents:   e.Pending,
		Windows:         e.Windows,
		Messages:        e.Messages,
		Shards:          len(e.Shards),
		HeartbeatAgeSec: -1,
		WatchdogCycle:   e.WatchdogCycle,
		WorkDone:        o.workDone,
		WorkTotal:       o.workTotal,
		ETASec:          -1,
	}
	if o.machine != nil {
		p.Phase = o.machine.CurrentPhase()
	}
	if !published.IsZero() {
		p.HeartbeatAgeSec = now.Sub(published).Seconds()
	}
	if here := p.WorkDone - o.workBase; here > 0 && p.WorkTotal > p.WorkDone {
		perUnit := now.Sub(o.workSince).Seconds() / float64(here)
		p.ETASec = perUnit * float64(p.WorkTotal-p.WorkDone)
	}
	return p
}

// Handler returns the observability mux: /metrics, /progress and
// /debug/pprof/*.
func (o *Obs) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		o.Refresh()
		w.Header().Set("Content-Type", metrics.ContentType)
		if err := o.Registry.WriteOpenMetrics(w); err != nil {
			// Too late for an HTTP error; the scraper sees a truncated body
			// with no # EOF and rejects it.
			return
		}
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(o.Progress())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "xmtfft observability\n\n/metrics\n/progress\n/debug/pprof/\n")
	})
	RegisterPprof(mux)
	return mux
}

// Serve binds addr (":0" picks a free port) and serves the handler in
// the background, returning the bound address. Close shuts it down.
func (o *Obs) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs listen %s: %w", addr, err)
	}
	o.ln = ln
	o.srv = &http.Server{Handler: o.Handler()}
	go o.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// WriteSnapshot atomically writes the current exposition to path, so a
// crash or scrape outage still leaves a parseable last-known state.
func (o *Obs) WriteSnapshot(path string) error {
	o.Refresh()
	return WriteFileAtomic(path, func(w io.Writer) error {
		return o.Registry.WriteOpenMetrics(w)
	})
}

// StartSnapshots writes the exposition to path every interval until
// Close. Errors are reported through errf (nil discards them) rather
// than aborting the run — observability must never kill the simulation.
func (o *Obs) StartSnapshots(path string, every time.Duration, errf func(error)) {
	if every <= 0 {
		every = 10 * time.Second
	}
	o.snapStop = make(chan struct{})
	o.snapDone = make(chan struct{})
	go func() {
		defer close(o.snapDone)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := o.WriteSnapshot(path); err != nil && errf != nil {
					errf(err)
				}
			case <-o.snapStop:
				// Final snapshot so the file holds the finished totals.
				if err := o.WriteSnapshot(path); err != nil && errf != nil {
					errf(err)
				}
				return
			}
		}
	}()
}

// Close stops the snapshot writer (flushing a final snapshot) and the
// HTTP server.
func (o *Obs) Close() error {
	if o.snapStop != nil {
		close(o.snapStop)
		<-o.snapDone
		o.snapStop = nil
	}
	if o.srv != nil {
		err := o.srv.Close()
		o.srv = nil
		return err
	}
	return nil
}
