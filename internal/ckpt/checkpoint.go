package ckpt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fault"
	"xmtfft/internal/xmt"
)

// Section names inside the container. Meta is always present; Machine
// and Workload are absent in meta-only checkpoints (ablation-stage
// progress, post-mortem dumps).
const (
	secMeta     = "meta"
	secMachine  = "machine"
	secWorkload = "workload"
)

// Meta is everything needed to rebuild the machine and workload a
// checkpoint belongs to, plus where in the run it was taken. It is the
// authority on resume: CLI flags that disagree with it are an error,
// unset ones adopt it.
type Meta struct {
	// Machine construction parameters.
	Config config.Config
	// Workers is 1 in every checkpoint written now. Earlier writers
	// recorded their simulation worker count, which Restore ignores;
	// 0 marks the removed legacy serial engine, which Restore refuses.
	Workers int

	// Workload construction parameters.
	DimCount int    // 1, 2 or 3
	Dims     [3]int // (d0, d1, n) as passed to New1D/2D/3D
	Radix    int    // SetFixedRadix argument; 0 = mixed default
	Dir      int    // fft.Direction of the run

	// Run environment rebuilt before restore.
	Plan           fault.Plan
	WatchdogWindow uint64 // watchdog installed by flags (state is in MachineState)
	Prefetch       bool

	// Position in the run.
	Cycle       uint64 // machine clock at capture
	PhasesDone  int
	TotalPhases int

	// Ablation-sweep position (xmtbench): completed variants and their
	// cycle counts. Meta-only checkpoints use these with no machine or
	// workload sections (each variant rebuilds a fresh machine).
	Stage       int
	StageCycles []uint64

	// PostMortem marks a watchdog post-mortem dump; see ErrPostMortem.
	PostMortem bool
	// Note is free-form context (e.g. the watchdog error text).
	Note string
}

// Checkpoint is the in-memory form of a checkpoint file.
type Checkpoint struct {
	Meta     Meta
	Machine  *xmt.MachineState // nil in meta-only checkpoints
	Workload *core.ResumeState // nil in meta-only checkpoints
}

func encodeSection(name string, v any) (section, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return section{}, fmt.Errorf("ckpt: encode %s: %w", name, err)
	}
	return section{name: name, payload: buf.Bytes()}, nil
}

// Write atomically writes c to path, returning the file size in bytes.
func Write(path string, c *Checkpoint) (int64, error) {
	secs := make([]section, 0, 3)
	s, err := encodeSection(secMeta, &c.Meta)
	if err != nil {
		return 0, err
	}
	secs = append(secs, s)
	if c.Machine != nil {
		if s, err = encodeSection(secMachine, c.Machine); err != nil {
			return 0, err
		}
		secs = append(secs, s)
	}
	if c.Workload != nil {
		if s, err = encodeSection(secWorkload, c.Workload); err != nil {
			return 0, err
		}
		secs = append(secs, s)
	}
	return writeFileAtomic(path, secs)
}

// Read parses and verifies a checkpoint file. Structural damage returns
// *FormatError, an incompatible writer *VersionError.
func Read(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	secs, err := readContainer(f, path)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{}
	meta, ok := secs[secMeta]
	if !ok {
		return nil, &FormatError{Path: path, Section: secMeta, Reason: "missing"}
	}
	if err := gob.NewDecoder(bytes.NewReader(meta)).Decode(&c.Meta); err != nil {
		return nil, &FormatError{Path: path, Section: secMeta, Reason: "gob: " + err.Error()}
	}
	if p, ok := secs[secMachine]; ok {
		c.Machine = &xmt.MachineState{}
		if err := gob.NewDecoder(bytes.NewReader(p)).Decode(c.Machine); err != nil {
			return nil, &FormatError{Path: path, Section: secMachine, Reason: "gob: " + err.Error()}
		}
	}
	if p, ok := secs[secWorkload]; ok {
		c.Workload = &core.ResumeState{}
		if err := gob.NewDecoder(bytes.NewReader(p)).Decode(c.Workload); err != nil {
			return nil, &FormatError{Path: path, Section: secWorkload, Reason: "gob: " + err.Error()}
		}
	}
	return c, nil
}

// Capture snapshots a quiescent machine and the transform's workload
// state into a Checkpoint. meta supplies the construction parameters;
// Cycle is stamped here from the machine clock, and Workers as 1.
func Capture(m *xmt.Machine, t *core.Transform, meta Meta, partial *core.ResumeState) (*Checkpoint, error) {
	ms, err := m.CaptureState()
	if err != nil {
		return nil, err
	}
	meta.Cycle = m.Now()
	meta.Workers = 1
	return &Checkpoint{Meta: meta, Machine: ms, Workload: partial}, nil
}

// Restore rebuilds a machine and transform from the checkpoint and
// restores their state. path is used only for error messages.
func (c *Checkpoint) Restore(path string) (*xmt.Machine, *core.Transform, error) {
	if c.Meta.PostMortem {
		return nil, nil, ErrPostMortem
	}
	if c.Machine == nil || c.Workload == nil {
		return nil, nil, &MismatchError{Path: path, Reason: "meta-only checkpoint has no machine state"}
	}
	if c.Meta.Workers == 0 {
		return nil, nil, &MismatchError{Path: path, Reason: "engine kind: checkpoint captured on the legacy serial engine (-sim-workers 0), which has been removed; its cycle counts differ from the sharded engine's, so rerun from the start"}
	}
	m, err := xmt.New(c.Meta.Config)
	if err != nil {
		return nil, nil, err
	}
	if c.Meta.Plan.Active() {
		if err := m.EnableFaults(c.Meta.Plan); err != nil {
			return nil, nil, err
		}
	}
	m.EnablePrefetch(c.Meta.Prefetch)
	if err := m.RestoreState(c.Machine); err != nil {
		return nil, nil, &MismatchError{Path: path, Reason: err.Error()}
	}
	var t *core.Transform
	switch c.Meta.DimCount {
	case 1:
		t, err = core.New1D(m, c.Meta.Dims[2])
	case 2:
		t, err = core.New2D(m, c.Meta.Dims[1], c.Meta.Dims[2])
	case 3:
		t, err = core.New3D(m, c.Meta.Dims[0], c.Meta.Dims[1], c.Meta.Dims[2])
	default:
		return nil, nil, &MismatchError{Path: path, Reason: fmt.Sprintf("bad dimension count %d", c.Meta.DimCount)}
	}
	if err != nil {
		return nil, nil, err
	}
	if c.Meta.Radix != 0 {
		if err := t.SetFixedRadix(c.Meta.Radix); err != nil {
			return nil, nil, err
		}
	}
	return m, t, nil
}

// WritePostMortem writes a meta-only post-mortem dump: the run's meta
// with PostMortem set and note carrying the failure context (e.g. the
// watchdog error). Readable with Read for diagnosis; Restore refuses it.
func WritePostMortem(path string, meta Meta, note string) (int64, error) {
	meta.PostMortem = true
	meta.Note = note
	meta.Workers = 1
	return Write(path, &Checkpoint{Meta: meta})
}
