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
	"xmtfft/internal/sim"
	"xmtfft/internal/xmt"
)

// Obs is the live observability surface for a long simulation run: one
// metrics registry fed from three sources — the machine-level series
// (ops, faults, utilization; xmt.MetricSet), the
// engine-level telemetry (per-shard event counts, cycle frontier, queue
// depths, watchdog heartbeat; sim.Telemetry), and a few wall-clock
// series computed at scrape time (event rates, uptime, heartbeat age).
// It serves /metrics (OpenMetrics), /progress (JSON with events/sec and
// an ETA) and /debug/pprof/*, and can mirror the exposition to a
// snapshot file on a timer so a run survives scrape outages.
//
// One Obs outlives the machines it watches: Watch may be called once
// per ablation variant and the cumulative counters keep rising, while
// frontier gauges track whichever machine is current.
type Obs struct {
	Registry  *metrics.Registry
	Machines  *xmt.MetricSet
	Telemetry *sim.Telemetry

	// Epoch is the live sampling stride in simulated cycles passed to
	// AttachLiveMetrics by Watch; zero means the machine default.
	Epoch uint64

	start time.Time

	// Wall-clock scrape-side series.
	uptime      *metrics.Gauge
	simCycle    *metrics.Gauge
	simPending  *metrics.Gauge
	simEvents   *metrics.Counter
	simWindows  *metrics.Counter
	simMessages *metrics.Counter
	eventRate   *metrics.Gauge
	wdLast      *metrics.Gauge
	wdWindow    *metrics.Gauge
	wdAge       *metrics.Gauge
	workDoneG   *metrics.Gauge
	workTotalG  *metrics.Gauge

	// Checkpoint series, fed by RecordCheckpoint.
	ckptWrites    *metrics.Counter
	ckptBytes     *metrics.Counter
	ckptLastCycle *metrics.Gauge

	shardEvents  *metrics.CounterVec
	shardCycle   *metrics.GaugeVec
	shardPending *metrics.GaugeVec
	shardRate    *metrics.GaugeVec

	mu         sync.Mutex
	machine    *xmt.Machine
	prevTime   time.Time
	prevEvents uint64
	rate       float64
	prevShard  []uint64
	shardRateV []float64
	// cached vec children, indexed by shard
	chEvents  []*metrics.Counter
	chCycle   []*metrics.Gauge
	chPending []*metrics.Gauge
	chRate    []*metrics.Gauge
	workDone  int
	workTotal int
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
		Registry:  reg,
		Machines:  xmt.NewMetricSet(reg),
		Telemetry: &sim.Telemetry{},
		start:     time.Now(),

		uptime:      reg.Gauge("xmtfft_uptime_seconds", "Wall-clock seconds since the observability surface was created."),
		simCycle:    reg.Gauge("xmtfft_sim_cycle", "Simulated-cycle frontier of the attached engine."),
		simPending:  reg.Gauge("xmtfft_sim_pending_events", "Events queued in the attached engine at last publish."),
		simEvents:   reg.Counter("xmtfft_sim_events", "Discrete events executed, cumulative across attached engines."),
		simWindows:  reg.Counter("xmtfft_sim_windows", "Conservative time windows completed by the sharded engine."),
		simMessages: reg.Counter("xmtfft_sim_messages", "Cross-shard messages merged by the sharded engine."),
		eventRate:   reg.Gauge("xmtfft_sim_events_per_second", "Event execution rate over the last scrape interval."),
		wdLast:      reg.Gauge("xmtfft_watchdog_last_progress_cycle", "Cycle of the watchdog's latest progress mark (0 without a watchdog)."),
		wdWindow:    reg.Gauge("xmtfft_watchdog_window_cycles", "Watchdog abort threshold in cycles (0 without a watchdog)."),
		wdAge:       reg.Gauge("xmtfft_watchdog_heartbeat_age_seconds", "Wall-clock age of the engine's last telemetry publish; NaN before the first."),
		workDoneG:   reg.Gauge("xmtfft_work_done", "Completed work units of the current job (e.g. ablation variants)."),
		workTotalG:  reg.Gauge("xmtfft_work_units", "Total work units of the current job; 0 when unknown."),

		ckptWrites:    reg.Counter("xmtfft_ckpt_writes", "Checkpoint files written by this run."),
		ckptBytes:     reg.Counter("xmtfft_ckpt_bytes", "Total bytes of checkpoint data written by this run."),
		ckptLastCycle: reg.Gauge("xmtfft_ckpt_last_cycle", "Simulated cycle of the most recent checkpoint (0 before the first)."),

		shardEvents:  reg.CounterVec("xmtfft_sim_shard_events", "Events executed per engine shard.", "shard"),
		shardCycle:   reg.GaugeVec("xmtfft_sim_shard_cycle", "Per-shard clock at last publish.", "shard"),
		shardPending: reg.GaugeVec("xmtfft_sim_shard_pending_events", "Per-shard queued events at last publish.", "shard"),
		shardRate:    reg.GaugeVec("xmtfft_sim_shard_events_per_second", "Per-shard event execution rate over the last scrape interval.", "shard"),
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
// o.Epoch cycles plus engine telemetry, and makes the machine's phase
// label visible to /progress. Call again for each new machine in a
// sweep; cumulative counters carry across.
func (o *Obs) Watch(m *xmt.Machine) {
	m.AttachLiveMetrics(o.Machines, o.Epoch)
	m.SetTelemetry(o.Telemetry)
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

// Refresh pulls the telemetry atomics into registry series and
// recomputes the wall-clock rates. Handlers call it before every
// encode; it is cheap (a few dozen atomic loads) and safe to call
// concurrently with the simulation.
func (o *Obs) Refresh() {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := time.Now()
	t := o.Telemetry

	o.uptime.Set(now.Sub(o.start).Seconds())
	o.simCycle.SetUint(t.Cycle.Load())
	o.simPending.SetUint(t.Pending.Load())
	events := t.Events.Load()
	o.simEvents.Set(events)
	o.simWindows.Set(t.Windows.Load())
	o.simMessages.Set(t.Messages.Load())
	o.wdLast.SetUint(t.WatchdogLast.Load())
	o.wdWindow.SetUint(t.WatchdogWindow.Load())
	if age, ok := t.HeartbeatAge(now); ok {
		o.wdAge.Set(age.Seconds())
	}
	o.workDoneG.Set(float64(o.workDone))
	o.workTotalG.Set(float64(o.workTotal))

	// Rates use the interval since the previous refresh; sub-millisecond
	// intervals (back-to-back scrapes) keep the previous value instead of
	// amplifying noise.
	dt := now.Sub(o.prevTime).Seconds()
	view := t.ShardView()
	for i := len(o.chEvents); i < len(view); i++ {
		lbl := strconv.Itoa(i)
		o.chEvents = append(o.chEvents, o.shardEvents.With(lbl))
		o.chCycle = append(o.chCycle, o.shardCycle.With(lbl))
		o.chPending = append(o.chPending, o.shardPending.With(lbl))
		o.chRate = append(o.chRate, o.shardRate.With(lbl))
		o.prevShard = append(o.prevShard, 0)
		o.shardRateV = append(o.shardRateV, 0)
	}
	for i, sh := range view {
		ev := sh.Events.Load()
		o.chEvents[i].Set(ev)
		o.chCycle[i].SetUint(sh.Cycle.Load())
		o.chPending[i].SetUint(sh.Pending.Load())
		if dt >= 1e-3 {
			o.shardRateV[i] = float64(ev-o.prevShard[i]) / dt
			o.prevShard[i] = ev
		}
		o.chRate[i].Set(o.shardRateV[i])
	}
	if dt >= 1e-3 {
		o.rate = float64(events-o.prevEvents) / dt
		o.prevEvents = events
		o.prevTime = now
	}
	o.eventRate.Set(o.rate)
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
	HeartbeatAgeSec float64 `json:"heartbeat_age_sec"` // -1 before the first engine publish
	WatchdogCycle   uint64  `json:"watchdog_cycle"`
	WorkDone        int     `json:"work_done"`
	WorkTotal       int     `json:"work_total"`
	ETASec          float64 `json:"eta_sec"` // -1 when unknown
}

// Progress assembles the current progress document (refreshing rates
// first).
func (o *Obs) Progress() Progress {
	o.Refresh()
	o.mu.Lock()
	defer o.mu.Unlock()
	now := time.Now()
	t := o.Telemetry
	p := Progress{
		UptimeSec:       now.Sub(o.start).Seconds(),
		Cycle:           t.Cycle.Load(),
		Events:          t.Events.Load(),
		EventsPerSec:    o.rate,
		PendingEvents:   t.Pending.Load(),
		Windows:         t.Windows.Load(),
		Messages:        t.Messages.Load(),
		Shards:          len(t.ShardView()),
		HeartbeatAgeSec: -1,
		WatchdogCycle:   t.WatchdogLast.Load(),
		WorkDone:        o.workDone,
		WorkTotal:       o.workTotal,
		ETASec:          -1,
	}
	if o.machine != nil {
		p.Phase = o.machine.CurrentPhase()
	}
	if age, ok := t.HeartbeatAge(now); ok {
		p.HeartbeatAgeSec = age.Seconds()
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
