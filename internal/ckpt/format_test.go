package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"xmtfft/internal/config"
)

// smallCheckpoint builds a meta-only checkpoint for format tests.
func smallCheckpoint() *Checkpoint {
	return &Checkpoint{Meta: Meta{
		Config: config.FourK(), Workers: 2,
		DimCount: 3, Dims: [3]int{16, 16, 16},
		Cycle: 12345, PhasesDone: 3, TotalPhases: 12,
	}}
}

func writeTemp(t *testing.T, c *Checkpoint) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.ckpt")
	if _, err := Write(path, c); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTripMeta(t *testing.T) {
	path := writeTemp(t, smallCheckpoint())
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	want := smallCheckpoint()
	if got.Meta.Config.Name != want.Meta.Config.Name ||
		got.Meta.Workers != want.Meta.Workers ||
		got.Meta.Dims != want.Meta.Dims ||
		got.Meta.Cycle != want.Meta.Cycle ||
		got.Meta.PhasesDone != want.Meta.PhasesDone {
		t.Fatalf("meta round trip: got %+v", got.Meta)
	}
	if got.Machine != nil || got.Workload != nil {
		t.Fatal("meta-only checkpoint grew machine/workload sections")
	}
}

func TestTruncatedFile(t *testing.T) {
	path := writeTemp(t, smallCheckpoint())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must be refused with a FormatError: a torn
	// write can stop at any byte.
	for _, cut := range []int{0, 4, len(magic), len(magic) + 6, len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, rerr := Read(path)
		var fe *FormatError
		if !errors.As(rerr, &fe) {
			t.Fatalf("cut at %d: err = %v, want *FormatError", cut, rerr)
		}
	}
}

func TestCorruptPayload(t *testing.T) {
	path := writeTemp(t, smallCheckpoint())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit near the end of the payload region; CRC must catch it.
	raw[len(raw)-3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rerr := Read(path)
	var fe *FormatError
	if !errors.As(rerr, &fe) {
		t.Fatalf("err = %v, want *FormatError (CRC)", rerr)
	}
}

func TestTrailingGarbage(t *testing.T) {
	path := writeTemp(t, smallCheckpoint())
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("junk")
	f.Close()
	_, rerr := Read(path)
	var fe *FormatError
	if !errors.As(rerr, &fe) {
		t.Fatalf("err = %v, want *FormatError (trailing data)", rerr)
	}
}

func TestBadMagic(t *testing.T) {
	path := writeTemp(t, smallCheckpoint())
	raw, _ := os.ReadFile(path)
	raw[0] = 'Y'
	os.WriteFile(path, raw, 0o644)
	_, rerr := Read(path)
	var fe *FormatError
	if !errors.As(rerr, &fe) {
		t.Fatalf("err = %v, want *FormatError (magic)", rerr)
	}
}

func TestBadVersion(t *testing.T) {
	path := writeTemp(t, smallCheckpoint())
	raw, _ := os.ReadFile(path)
	raw[len(magic)] = 0xFE // version field, little-endian low byte
	os.WriteFile(path, raw, 0o644)
	_, rerr := Read(path)
	var ve *VersionError
	if !errors.As(rerr, &ve) {
		t.Fatalf("err = %v, want *VersionError", rerr)
	}
	if ve.Got == Version || ve.Want != Version {
		t.Fatalf("version error got=%d want=%d", ve.Got, ve.Want)
	}
}

func TestPostMortemRefusedOnResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.ckpt")
	if _, err := WritePostMortem(path, smallCheckpoint().Meta, "watchdog: no progress"); err != nil {
		t.Fatal(err)
	}
	c, err := Read(path)
	if err != nil {
		t.Fatalf("post-mortem must stay readable for diagnosis: %v", err)
	}
	if !c.Meta.PostMortem || c.Meta.Note != "watchdog: no progress" {
		t.Fatalf("post-mortem meta: %+v", c.Meta)
	}
	if _, _, err := c.Restore(path); !errors.Is(err, ErrPostMortem) {
		t.Fatalf("Restore(post-mortem) = %v, want ErrPostMortem", err)
	}
}

func TestMetaOnlyRefusedOnResume(t *testing.T) {
	path := writeTemp(t, smallCheckpoint())
	c, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	var me *MismatchError
	if _, _, err := c.Restore(path); !errors.As(err, &me) {
		t.Fatalf("Restore(meta-only) = %v, want *MismatchError", err)
	}
}

func TestAtomicOverwriteKeepsOldOnFailure(t *testing.T) {
	// Writing over an existing checkpoint never leaves a torn file: the
	// temp+rename discipline means a failed write keeps the old bytes.
	path := writeTemp(t, smallCheckpoint())
	before, _ := os.ReadFile(path)
	c2 := smallCheckpoint()
	c2.Meta.Cycle = 99999
	if _, err := Write(path, c2); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(path)
	if string(before) == string(after) {
		t.Fatal("overwrite did not replace the file")
	}
	got, err := Read(path)
	if err != nil || got.Meta.Cycle != 99999 {
		t.Fatalf("after overwrite: %+v, %v", got, err)
	}
}
