package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/core"
	"xmtfft/internal/fault"
	"xmtfft/internal/fft"
	"xmtfft/internal/trace"
	"xmtfft/internal/xmt"
)

// pinnedRuns are traced 16³ forward FFTs whose exports are pinned byte
// for byte: the WriteSummary text against testdata/<name>.txt and the
// sha256 of the WritePerfetto bytes. The sha256 values were captured
// before the summary's distributions were derived from the recorded
// stream, and the summaries were last pinned when their quantiles became
// the nearest-rank samples, so any change to the event stream, the
// pairing of thread spans or the summary's quantile rule shows here.
var pinnedRuns = []struct {
	name     string
	base     config.Config
	tcus     int
	faults   fault.Plan
	perfetto string
}{
	{"summary_4k_256", config.FourK(), 256, fault.Plan{},
		"88930cb0f891397737dd382250b631716a4dca1b70b4db4ea6d484ab82d44346"},
	{"summary_64k_1024", config.SixtyFourK(), 1024, fault.Plan{},
		"584f6f63f73a12fcada86ff89f50383adb9e1b9d92a7a7a56f2988b197257974"},
	{"summary_4k_256_faults", config.FourK(), 256,
		fault.Plan{Seed: 3, NoCDrop: 0.02, NoCCorrupt: 0.01, DRAMBitErr: 0.02, KillClusters: []int{1}},
		"105893d8e49c11ed23f8942974e4332d2f271f17f5bb6526e631b95040bacafc"},
}

func TestTraceExportsPinned(t *testing.T) {
	for _, pr := range pinnedRuns {
		t.Run(pr.name, func(t *testing.T) {
			cfg, err := pr.base.Scaled(pr.tcus)
			if err != nil {
				t.Fatal(err)
			}
			m, err := xmt.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if pr.faults.Active() {
				if err := m.EnableFaults(pr.faults); err != nil {
					t.Fatal(err)
				}
			}
			rec := trace.NewRecorder(256)
			rec.Label = cfg.Name
			m.AttachRecorder(rec)
			tr, err := core.New3D(m, 16, 16, 16)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Run(fft.Forward); err != nil {
				t.Fatal(err)
			}

			var sum bytes.Buffer
			if err := rec.WriteSummary(&sum); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", pr.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sum.Bytes(), want) {
				t.Errorf("summary changed:\n got:\n%s\nwant:\n%s", sum.Bytes(), want)
			}

			h := sha256.New()
			if err := rec.WritePerfetto(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pr.perfetto {
				t.Errorf("Perfetto export sha256 = %s, want %s", got, pr.perfetto)
			}
		})
	}
}
