// Command obscheck validates OpenMetrics exposition files with the
// repo's strict parser and requires the observability acceptance
// series. The default mode checks a simulator run: per-shard event
// counts and rates, utilization, faults and the watchdog heartbeat —
// CI feeds it the mid-run scrape and the final snapshot of an
// xmtbench -serve-obs run. With -serve it instead checks a transform
// service scrape: the request/latency series and admission-control
// gauges exported by cmd/xmtserve.
//
// Usage: go run ./internal/metrics/obscheck [-serve] file.prom [file.prom ...]
package main

import (
	"flag"
	"fmt"
	"os"

	"xmtfft/internal/metrics"
)

type series struct {
	name   string
	labels map[string]string
}

// requiredSim are the series every live simulator exposition must carry.
var requiredSim = []series{
	{"xmtfft_sim_events_total", nil},
	{"xmtfft_sim_events_per_second", nil},
	{"xmtfft_sim_cycle", nil},
	{"xmtfft_sim_pending_events", nil},
	{"xmtfft_sim_shard_events_total", map[string]string{"shard": "0"}},
	{"xmtfft_sim_shard_events_per_second", map[string]string{"shard": "0"}},
	{"xmtfft_util_fpu", nil},
	{"xmtfft_util_lsu", nil},
	{"xmtfft_util_dram", nil},
	{"xmtfft_faults_total", map[string]string{"kind": "silent"}},
	{"xmtfft_watchdog_heartbeat_age_seconds", nil},
	{"xmtfft_ops_total", map[string]string{"kind": "fp"}},
}

// requiredServe are the series every xmtserve scrape that has taken
// traffic must carry.
var requiredServe = []series{
	{"xmtserve_requests_total", map[string]string{"route": "1d", "code": "200"}},
	{"xmtserve_request_latency_seconds_count", map[string]string{"route": "1d"}},
	{"xmtserve_queue_depth", nil},
	{"xmtserve_queue_limit", nil},
	{"xmtserve_requests_rejected_total", nil},
	{"xmtserve_draining", nil},
}

func check(path string, serveMode bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	exp, err := metrics.Parse(f)
	if err != nil {
		return fmt.Errorf("%s: invalid exposition: %w", path, err)
	}
	required, activity := requiredSim, series{"xmtfft_sim_events_total", nil}
	if serveMode {
		required, activity = requiredServe, series{"xmtserve_requests_total", map[string]string{"route": "1d", "code": "200"}}
	}
	for _, r := range required {
		if _, ok := exp.Value(r.name, r.labels); !ok {
			return fmt.Errorf("%s: required series %s %v missing", path, r.name, r.labels)
		}
	}
	if v, _ := exp.Value(activity.name, activity.labels); v <= 0 {
		return fmt.Errorf("%s: %s %v = %g, want > 0", path, activity.name, activity.labels, v)
	}
	fmt.Printf("%s: ok (%d families)\n", path, len(exp.Families))
	return nil
}

func main() {
	serveMode := flag.Bool("serve", false, "require the xmtserve series instead of the simulator series")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: obscheck [-serve] file.prom [file.prom ...]")
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		if err := check(path, *serveMode); err != nil {
			fmt.Fprintln(os.Stderr, "obscheck:", err)
			os.Exit(1)
		}
	}
}
