// Package ckpt implements durable checkpoint/resume for long detailed
// simulation runs (DESIGN.md §12). A checkpoint captures a quiescent
// machine (internal/xmt.MachineState) plus the workload's host-side
// state (internal/core.ResumeState) and enough metadata to rebuild an
// identical machine, so a run killed mid-flight resumes bit-identical
// to an uninterrupted one — same FFT output, cycle counts and stats, at
// any worker count.
//
// The on-disk container is deliberately dumb: a magic string, a format
// version, and named sections each carrying a CRC32 of its payload.
// Sections are gob-encoded (stdlib, handles complex64, versions
// tolerantly within a format version). Files are written atomically
// (temp + fsync + rename + dir fsync), so a crash during a checkpoint
// write leaves the previous checkpoint intact; a torn or corrupted file
// is detected by magic/version/length/CRC checks and refused with a
// typed error rather than resumed from.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Format constants. Version bumps whenever a section's gob schema
// changes incompatibly; readers refuse other versions outright — a
// checkpoint is a short-lived crash-recovery artifact, not an archive
// format, so there is no cross-version migration.
const (
	Version uint32 = 1

	magic = "XMTCKPT\x00"

	// maxSectionBytes bounds a section length read from disk before
	// allocating, so a corrupt length field cannot OOM the reader. 1 GiB
	// is orders of magnitude above any real checkpoint.
	maxSectionBytes = 1 << 30
)

// FormatError reports a structurally bad checkpoint file: truncated,
// wrong magic, corrupt section framing, or a CRC mismatch. A resume
// must treat it as "no usable checkpoint", never retry the file.
type FormatError struct {
	Path    string
	Section string // empty when the container itself is bad
	Reason  string
}

func (e *FormatError) Error() string {
	if e.Section != "" {
		return fmt.Sprintf("ckpt: %s: section %q: %s", e.Path, e.Section, e.Reason)
	}
	return fmt.Sprintf("ckpt: %s: %s", e.Path, e.Reason)
}

// VersionError reports a checkpoint written by an incompatible format
// version.
type VersionError struct {
	Path string
	Got  uint32
	Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("ckpt: %s: format version %d (this build reads version %d)", e.Path, e.Got, e.Want)
}

// MismatchError reports a well-formed checkpoint that cannot restore
// onto the requested machine: one written by the removed legacy engine,
// wrong configuration, or a workload shape conflict.
type MismatchError struct {
	Path   string
	Reason string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("ckpt: %s: cannot resume: %s", e.Path, e.Reason)
}

// ErrPostMortem marks a post-mortem dump (written after a watchdog
// abort): valid for inspection, never for resume — the machine it
// describes was poisoned mid-section, not quiescent.
var ErrPostMortem = errors.New("ckpt: checkpoint is a post-mortem dump, not resumable")

// section is one named, CRC-protected payload.
type section struct {
	name    string
	payload []byte
}

// writeContainer serializes the container to w.
func writeContainer(w io.Writer, secs []section) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], Version)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(secs)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, s := range secs {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s.name)))
		if _, err := w.Write(n[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, s.name); err != nil {
			return err
		}
		var ln [12]byte
		binary.LittleEndian.PutUint64(ln[0:8], uint64(len(s.payload)))
		binary.LittleEndian.PutUint32(ln[8:12], crc32.ChecksumIEEE(s.payload))
		if _, err := w.Write(ln[:]); err != nil {
			return err
		}
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
	}
	return nil
}

// readContainer parses and verifies the container, returning sections
// by name. path is used only for error messages.
func readContainer(r io.Reader, path string) (map[string][]byte, error) {
	bad := func(section, reason string) error {
		return &FormatError{Path: path, Section: section, Reason: reason}
	}
	var m [len(magic)]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, bad("", "truncated magic: "+err.Error())
	}
	if string(m[:]) != magic {
		return nil, bad("", "not a checkpoint file (bad magic)")
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, bad("", "truncated header: "+err.Error())
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != Version {
		return nil, &VersionError{Path: path, Got: v, Want: Version}
	}
	count := binary.LittleEndian.Uint32(hdr[4:8])
	if count > 64 {
		return nil, bad("", fmt.Sprintf("implausible section count %d", count))
	}
	out := make(map[string][]byte, count)
	for i := uint32(0); i < count; i++ {
		var n [4]byte
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return nil, bad("", "truncated section name length: "+err.Error())
		}
		nameLen := binary.LittleEndian.Uint32(n[:])
		if nameLen == 0 || nameLen > 256 {
			return nil, bad("", fmt.Sprintf("implausible section name length %d", nameLen))
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, bad("", "truncated section name: "+err.Error())
		}
		var ln [12]byte
		if _, err := io.ReadFull(r, ln[:]); err != nil {
			return nil, bad(string(name), "truncated section header: "+err.Error())
		}
		plen := binary.LittleEndian.Uint64(ln[0:8])
		wantCRC := binary.LittleEndian.Uint32(ln[8:12])
		if plen > maxSectionBytes {
			return nil, bad(string(name), fmt.Sprintf("implausible section length %d", plen))
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, bad(string(name), "truncated payload: "+err.Error())
		}
		if got := crc32.ChecksumIEEE(payload); got != wantCRC {
			return nil, bad(string(name), fmt.Sprintf("CRC mismatch (file %08x, computed %08x)", wantCRC, got))
		}
		out[string(name)] = payload
	}
	// Trailing garbage means the file is not what the writer produced.
	var one [1]byte
	if _, err := r.Read(one[:]); err != io.EOF {
		return nil, bad("", "trailing data after last section")
	}
	return out, nil
}

// writeFileAtomic writes the container durably: temp file in the target
// directory, fsync, rename over path, then a best-effort fsync of the
// directory so the rename itself survives a crash. Returns the file
// size. (Deliberately local rather than reusing internal/harness — the
// harness depends on this package, not the other way round.)
func writeFileAtomic(path string, secs []section) (n int64, err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	name := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(name)
		}
	}()
	cw := &countingWriter{w: tmp}
	if err = writeContainer(cw, secs); err != nil {
		return 0, fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return 0, fmt.Errorf("ckpt: write %s: sync: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return 0, fmt.Errorf("ckpt: write %s: close: %w", path, err)
	}
	if err = os.Rename(name, path); err != nil {
		os.Remove(name)
		return 0, fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
