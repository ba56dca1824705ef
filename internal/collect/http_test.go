package collect

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// goldenCollector builds a deterministic collector: injected clock, one
// shard layout-independent node set, loaded through IngestTrace so no
// network timing can perturb the result.
func goldenCollector(t *testing.T, nodes int) *Collector {
	t.Helper()
	fixed := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	c := New(Options{Now: func() time.Time { return fixed }})
	t.Cleanup(func() { c.Close() })
	specs := [][]string{
		{"compute", "exchange"},
		{"compute", "io", "reduce"},
		{"idle_wait", "compute"},
	}
	for n := 0; n < nodes; n++ {
		if err := c.IngestTrace(buildTrace(t, uint32(n+1), specs[n%len(specs)], 30+10*n)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file when TEMPEST_UPDATE_GOLDEN=1 is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if os.Getenv("TEMPEST_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with TEMPEST_UPDATE_GOLDEN=1): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s response drifted from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	res, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(body), res.Header
}

// staggerTrace builds the canonical two-lane barrier stagger on one
// node: a fast lane reaching MPI_Barrier at 4s and a straggler arriving
// at 7s, so the critical-path answer (wait attribution, serialization
// window, straggler lane) is known exactly.
func staggerTrace(t *testing.T, node uint32) *trace.Trace {
	t.Helper()
	clk := vclock.NewVirtualClock()
	tr, err := trace.NewTracer(trace.Config{Clock: clk, NodeID: node})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := tr.NewLane(), tr.NewLane()
	fastWork := tr.RegisterFunc("fast_work")
	slowWork := tr.RegisterFunc("straggler_work")
	barrier := tr.RegisterFunc("MPI_Barrier")
	sec := time.Second
	fast.EnterAt(fastWork, 0)
	slow.EnterAt(slowWork, 0)
	_ = fast.ExitAt(fastWork, 4*sec)
	fast.EnterAt(barrier, 4*sec)
	_ = slow.ExitAt(slowWork, 7*sec)
	slow.EnterAt(barrier, 7*sec)
	_ = fast.ExitAt(barrier, 8*sec)
	_ = slow.ExitAt(barrier, 8*sec)
	trc := tr.Finish()
	trc.Rank = node
	return trc
}

func TestHTTPCritPathGolden(t *testing.T) {
	fixed := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	c := New(Options{Now: func() time.Time { return fixed }})
	defer c.Close()
	if err := c.IngestTrace(staggerTrace(t, 1)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	code, body, hdr := get(t, srv, "/api/critpath/1")
	if code != 200 || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/api/critpath/1: status %d type %q", code, hdr.Get("Content-Type"))
	}
	checkGolden(t, "critpath_stagger", body)

	// Snapshots are non-destructive: a second query answers identically.
	if _, again, _ := get(t, srv, "/api/critpath/1"); again != body {
		t.Errorf("second /api/critpath/1 drifted:\n%s\nvs\n%s", again, body)
	}

	code, body, hdr = get(t, srv, "/api/critpath/1?format=text")
	if code != 200 || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("/api/critpath/1?format=text: status %d type %q", code, hdr.Get("Content-Type"))
	}
	checkGolden(t, "critpath_stagger_text", body)

	code, body, hdr = get(t, srv, "/api/timeline/1")
	if code != 200 || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/api/timeline/1: status %d type %q", code, hdr.Get("Content-Type"))
	}
	checkGolden(t, "timeline_stagger", body)

	code, body, hdr = get(t, srv, "/api/timeline/1?format=text&width=24")
	if code != 200 || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("/api/timeline/1?format=text: status %d type %q", code, hdr.Get("Content-Type"))
	}
	checkGolden(t, "timeline_stagger_text", body)

	for path, want := range map[string]int{
		"/api/critpath/99":                             404,
		"/api/critpath/bad":                            400,
		"/api/timeline/99":                             404,
		"/api/timeline/bad":                            400,
		"/api/timeline/1?width=-1":                     400,
		"/api/timeline/1?width=x":                      400,
		"/api/timeline/1?format=text&width=2000000000": 400,
	} {
		if code, _, _ := get(t, srv, path); code != want {
			t.Errorf("%s status = %d, want %d", path, code, want)
		}
	}
}

func TestHTTPHotspotsGoldenSingleNode(t *testing.T) {
	c := goldenCollector(t, 1)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	code, body, hdr := get(t, srv, "/api/hotspots?k=5")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	checkGolden(t, "hotspots_single_node", body)
}

func TestHTTPHotspotsGoldenEmptyFleet(t *testing.T) {
	c := goldenCollector(t, 0)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	code, body, _ := get(t, srv, "/api/hotspots?k=5")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	// The empty fleet is an answer, not an error: empty arrays, never null.
	if strings.Contains(body, "null") {
		t.Errorf("empty-fleet response contains JSON null:\n%s", body)
	}
	checkGolden(t, "hotspots_empty_fleet", body)
}

func TestHTTPMetricsGoldenSingleNode(t *testing.T) {
	c := goldenCollector(t, 1)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	code, body, hdr := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("content type %q", hdr.Get("Content-Type"))
	}
	checkGolden(t, "metrics_single_node", body)
}

func TestHTTPMetricsGoldenEmptyFleet(t *testing.T) {
	c := goldenCollector(t, 0)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	code, body, _ := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	checkGolden(t, "metrics_empty_fleet", body)
}

func TestHTTPNodesAndProfileAndSeries(t *testing.T) {
	c := goldenCollector(t, 3)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	code, body, _ := get(t, srv, "/api/nodes")
	if code != 200 {
		t.Fatalf("/api/nodes status %d", code)
	}
	checkGolden(t, "nodes_three", body)

	code, body, _ = get(t, srv, "/api/profile/2")
	if code != 200 || !strings.Contains(body, "\"node_id\": 2") {
		t.Fatalf("/api/profile/2: status %d body %.120s", code, body)
	}
	code, body, _ = get(t, srv, "/api/profile/2?format=text")
	if code != 200 || !strings.Contains(body, "node 2") {
		t.Fatalf("/api/profile/2?format=text: status %d body %.120s", code, body)
	}
	code, body, hdr := get(t, srv, "/api/series/1")
	if code != 200 || !strings.HasPrefix(hdr.Get("Content-Type"), "text/csv") {
		t.Fatalf("/api/series/1: status %d type %q", code, hdr.Get("Content-Type"))
	}
	if !strings.HasPrefix(body, "time_s,node,sensor,") {
		t.Fatalf("/api/series/1 not CSV: %.80s", body)
	}

	for path, want := range map[string]int{
		"/api/profile/99":         404,
		"/api/profile/bad":        400,
		"/api/series/bad":         400,
		"/api/hotspots?k=x":       400,
		"/api/hotspots?k=-5":      400,
		"/api/hotspots?sensor=-1": 400,
		"/nope":                   404,
	} {
		if code, _, _ := get(t, srv, path); code != want {
			t.Errorf("%s status = %d, want %d", path, code, want)
		}
	}

	code, body, _ = get(t, srv, "/healthz")
	if code != 200 || body != "ok\n" {
		t.Errorf("/healthz: %d %q", code, body)
	}
}
