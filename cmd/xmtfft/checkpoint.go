package main

// Checkpoint/resume and graceful-stop wiring (DESIGN.md §12). The
// simulation stops only at quiescent points (phase boundaries), so a
// signal requests a stop and the run loop honors it after the current
// phase, writing a resumable checkpoint when -checkpoint is set, and
// the run exits with harness.ExitInterrupted.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math"

	"xmtfft/internal/ckpt"
	"xmtfft/internal/config"
	"xmtfft/internal/sim"
	"xmtfft/internal/xmt"
)

// installPostMortem arranges for a watchdog abort to leave a meta-only
// post-mortem dump (refused by resume, readable for diagnosis) before
// the poisoned run unwinds.
func installPostMortem(m *xmt.Machine, path string, meta *ckpt.Meta) {
	m.OnWatchdog(func(we *sim.WatchdogError) {
		if n, err := ckpt.WritePostMortem(path, *meta, we.Error()); err != nil {
			slog.Error("watchdog post-mortem write failed", "path", path, "err", err)
		} else {
			slog.Error("watchdog fired; post-mortem dump written", "path", path, "bytes", n)
		}
	})
}

// outputDigest hashes the transform output bit-exactly: each complex64
// as little-endian IEEE-754 bit patterns, real then imaginary. The CI
// kill-and-resume lane compares this line between a resumed run and an
// uninterrupted reference.
func outputDigest(data []complex64) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint32(b[0:4], math.Float32bits(real(v)))
		binary.LittleEndian.PutUint32(b[4:8], math.Float32bits(imag(v)))
		h.Write(b[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// dimsOf maps (-dims, -n) to the [3]int layout used by core.New1D/2D/3D
// and recorded in checkpoint meta.
func dimsOf(dims, n int) [3]int {
	switch dims {
	case 1:
		return [3]int{1, 1, n}
	case 2:
		return [3]int{1, n, n}
	default:
		return [3]int{n, n, n}
	}
}

// resumeView is the subset of flag values checked against checkpoint
// meta on resume.
type resumeView struct {
	cfgName string
	tcus    int
	n       int
	dims    int
	radix   int

	watchdogWindow uint64

	faultSeed       uint64
	faultNoCDrop    float64
	faultNoCCorrupt float64
	faultDRAMBER    float64
	faultDRAMDBER   float64
	faultNoECC      bool
	faultKill       int
}

// checkResumeConflicts rejects explicitly-set flags that disagree with
// the checkpoint's meta. Unset flags adopt the meta silently; only a
// contradiction is an error, so `xmtfft -resume run.ckpt` just works
// while `xmtfft -resume run.ckpt -n 64` against a 32-point checkpoint
// fails loudly instead of simulating a different machine.
func checkResumeConflicts(meta ckpt.Meta, set map[string]bool, f resumeView) error {
	conflict := func(flagName string, got, want any) error {
		return &ckpt.MismatchError{Path: "-" + flagName, Reason: fmt.Sprintf(
			"flag value %v conflicts with the checkpoint's %v; drop the flag to adopt the checkpoint", got, want)}
	}
	if set["n"] && f.n != meta.Dims[2] {
		return conflict("n", f.n, meta.Dims[2])
	}
	if set["dims"] && f.dims != meta.DimCount {
		return conflict("dims", f.dims, meta.DimCount)
	}
	if set["radix"] && f.radix != meta.Radix {
		return conflict("radix", f.radix, meta.Radix)
	}
	if set["config"] || set["tcus"] {
		cfg, err := config.ByName(f.cfgName)
		if err != nil {
			return err
		}
		if f.tcus != 0 {
			if cfg, err = cfg.Scaled(f.tcus); err != nil {
				return err
			}
		}
		if cfg.Name != meta.Config.Name {
			return conflict("config/-tcus", cfg.Name, meta.Config.Name)
		}
	}
	if set["watchdog-window"] && f.watchdogWindow != meta.WatchdogWindow {
		return conflict("watchdog-window", f.watchdogWindow, meta.WatchdogWindow)
	}
	p := meta.Plan
	for _, c := range []struct {
		name string
		bad  bool
		got  any
		want any
	}{
		{"fault-seed", f.faultSeed != p.Seed, f.faultSeed, p.Seed},
		{"fault-noc-drop", f.faultNoCDrop != p.NoCDrop, f.faultNoCDrop, p.NoCDrop},
		{"fault-noc-corrupt", f.faultNoCCorrupt != p.NoCCorrupt, f.faultNoCCorrupt, p.NoCCorrupt},
		{"fault-dram-ber", f.faultDRAMBER != p.DRAMBitErr, f.faultDRAMBER, p.DRAMBitErr},
		{"fault-dram-dber", f.faultDRAMDBER != p.DRAMDoubleBitErr, f.faultDRAMDBER, p.DRAMDoubleBitErr},
		{"fault-no-ecc", f.faultNoECC != p.NoECC, f.faultNoECC, p.NoECC},
		{"fault-kill-clusters", f.faultKill != len(p.KillClusters), f.faultKill, len(p.KillClusters)},
	} {
		if set[c.name] && c.bad {
			return conflict(c.name, c.got, c.want)
		}
	}
	return nil
}
