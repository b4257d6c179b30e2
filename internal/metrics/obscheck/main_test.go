package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmtfft/internal/serve"
)

// scrapeFile writes srv's exposition to a file, leaving out every line
// that mentions drop (when drop is not empty), and returns its path.
func scrapeFile(t *testing.T, srv *serve.Server, drop string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.Registry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if drop == "" || !strings.Contains(line, drop) {
			kept = append(kept, line)
		}
	}
	path := filepath.Join(t.TempDir(), "scrape.prom")
	if err := os.WriteFile(path, []byte(strings.Join(kept, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckServe(t *testing.T) {
	idle, busy := serve.New(serve.Config{}), serve.New(serve.Config{})
	ts := httptest.NewServer(busy.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/transform", "application/json",
		strings.NewReader(`{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,0,0,0]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transform request: status %d", resp.StatusCode)
	}

	for _, tc := range []struct {
		name, path, wantErr string
	}{
		{"good scrape", scrapeFile(t, busy, ""), ""},
		{"missing series", scrapeFile(t, busy, "xmtserve_queue_limit"), "xmtserve_queue_limit"},
		{"missing stage", scrapeFile(t, busy, `stage="encode"`), "xmtserve_stage_seconds_count"},
		{"no traffic", scrapeFile(t, idle, ""), "xmtserve_requests_total"},
	} {
		err := check(tc.path, true)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.wantErr)
		}
	}
}
