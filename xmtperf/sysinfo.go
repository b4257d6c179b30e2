package main

// Host metadata carried in every record, so a noisy or single-CPU run
// can be recognised: CPU counts, Go version, CPU model, cache sizes and
// the share of CPU time the hypervisor stole while the run measured.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

type hostMeta struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	L2         string  `json:"l2"`
	L3         string  `json:"l3"`
	StealShare float64 `json:"steal_share"`
	SingleCPU  bool    `json:"single_cpu"`
}

func readHostMeta() hostMeta {
	m := hostMeta{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel()}
	m.L2, m.L3 = cacheSize(2), cacheSize(3)
	m.SingleCPU = m.NumCPU == 1 || m.GoMaxProcs == 1
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads the size of CPU 0's unified or data cache at level,
// as sysfs prints it (for example "2048K"); "unknown" if absent.
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, _ := os.ReadFile(filepath.Join(d, "level"))
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if sz, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

// cpuTimes is the aggregate "cpu" line of /proc/stat: total jiffies
// and the steal column.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of CPU time stolen between two readings.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
