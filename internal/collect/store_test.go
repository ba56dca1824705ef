package collect

import (
	"bytes"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tempest/internal/store"
	"tempest/internal/trace"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// storeClock is a deterministic wall clock for retention tests.
type storeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newStoreClock() *storeClock {
	return &storeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *storeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// align advances the clock to the next multiple of d.
func (c *storeClock) align(d time.Duration) {
	c.advance(c.now().Truncate(d).Add(d).Sub(c.now()))
}

func (c *storeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// uploadBulk streams a trace into the collector's ingest listener over
// TCP — the bulk path — and waits for the collector to finish it.
func uploadBulk(t *testing.T, addr string, tr *trace.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
		io.Copy(io.Discard, conn)
	}
}

// TestCollectorStoreRecovery is the headline durability property: a
// collector fed over both ingest paths is closed (simulating any death
// after the last ack — the store is synced per append) and a fresh
// collector on the same directory must answer every query as if the
// restart never happened.
func TestCollectorStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	traces := []*trace.Trace{
		buildTrace(t, 1, []string{"compute", "exchange"}, 50),
		buildTrace(t, 2, []string{"compute", "io", "reduce"}, 70),
		buildTrace(t, 3, []string{"idle_wait", "compute"}, 40),
	}
	opts := Options{StoreDir: dir, Logger: quietLogger()}

	// Oracle: the same traces through a collector that never restarts.
	oracle := New(Options{Logger: quietLogger()})
	defer oracle.Close()

	c1, addr := startCollector(t, opts)
	for i, tr := range traces {
		if i == len(traces)-1 {
			uploadBulk(t, addr, tr) // last node exercises the bulk path
		} else if err := c1.IngestTrace(tr); err != nil {
			t.Fatal(err)
		}
		if err := oracle.IngestTrace(tr); err != nil {
			t.Fatal(err)
		}
	}
	wantHot, err := oracle.Hotspots(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// The store must verify cleanly between runs.
	rep, err := store.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("store does not verify after clean shutdown: %v", err)
	}

	c2 := New(opts)
	defer c2.Close()
	if got := c2.DegradedStoreShards(); got != 0 {
		t.Fatalf("recovered collector reports %d degraded shards", got)
	}
	for _, tr := range traces {
		np, err := c2.NodeProfile(tr.NodeID)
		if err != nil {
			t.Fatalf("node %d lost across restart: %v", tr.NodeID, err)
		}
		got := renderNode(t, np)
		want := renderNode(t, offlineNodeProfile(t, tr, c2.opts.Unit))
		if got != want {
			t.Errorf("node %d profile diverged across restart:\n--- recovered ---\n%s--- offline ---\n%s", tr.NodeID, got, want)
		}
	}
	gotHot, err := c2.Hotspots(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotHot, wantHot) {
		t.Errorf("hotspots diverged across restart:\n got %+v\nwant %+v", gotHot, wantHot)
	}

	// The recovered collector keeps ingesting: the resume cursor
	// continues where the stored history ends.
	extra := buildTrace(t, 9, []string{"late_joiner"}, 10)
	if err := c2.IngestTrace(extra); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.NodeProfile(9); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorStoreRetention drives time-windowed compaction: raw
// history ages out, folds into the checkpoint archive, and the fleet
// hot-spot answer stays exactly what an uninterrupted, uncompacted run
// would give.
func TestCollectorStoreRetention(t *testing.T) {
	dir := t.TempDir()
	clk := newStoreClock()
	traces := []*trace.Trace{
		buildTrace(t, 1, []string{"compute", "exchange"}, 50),
		buildTrace(t, 2, []string{"compute", "io"}, 60),
	}
	opts := Options{
		StoreDir: dir,
		Logger:   quietLogger(),
		Now:      clk.now,
		StoreOptions: store.Options{
			Window:    time.Minute,
			Retention: 5 * time.Minute,
		},
	}

	oracle := New(Options{Logger: quietLogger()})
	defer oracle.Close()

	c1 := New(opts)
	for _, tr := range traces {
		if err := c1.IngestTrace(tr); err != nil {
			t.Fatal(err)
		}
		if err := oracle.IngestTrace(tr); err != nil {
			t.Fatal(err)
		}
	}
	wantHot, err := oracle.Hotspots(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Age everything past retention; reopening compacts at Open.
	clk.advance(10 * time.Minute)
	c2 := New(opts)
	defer c2.Close()

	ckpts, err := filepath.Glob(filepath.Join(dir, "shard-*", "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) == 0 {
		t.Fatal("retention produced no checkpoint")
	}
	rep, err := store.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("store does not verify after compaction: %v", err)
	}

	gotHot, err := c2.Hotspots(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Function rankings survive compaction exactly; per-node sample
	// rankings (Nodes) need raw samples and cover live history only.
	if !reflect.DeepEqual(gotHot.Functions, wantHot.Functions) {
		t.Errorf("functions diverged after compaction:\n got %+v\nwant %+v", gotHot.Functions, wantHot.Functions)
	}
	if !reflect.DeepEqual(gotHot.Merged, wantHot.Merged) {
		t.Errorf("merged ranking diverged after compaction:\n got %+v\nwant %+v", gotHot.Merged, wantHot.Merged)
	}

	// Node status reports the events as archived, not lost.
	for _, st := range c2.Nodes() {
		if st.ArchivedEvents == 0 {
			t.Errorf("node %d reports no archived events after compaction: %+v", st.NodeID, st)
		}
		if st.Err != "" {
			t.Errorf("node %d poisoned by compaction replay: %s", st.NodeID, st.Err)
		}
	}

	// A second restart replays archive + (empty) raw history idempotently.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3 := New(opts)
	defer c3.Close()
	got3, err := c3.Hotspots(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got3.Functions, wantHot.Functions) {
		t.Errorf("functions diverged after second restart:\n got %+v\nwant %+v", got3.Functions, wantHot.Functions)
	}
}

// budgetWriter fails every write after n bytes have passed — the
// mid-run disk-death fault for degraded-mode tests.
type budgetWriter struct {
	w io.Writer
	n *int64
}

func (bw budgetWriter) Write(p []byte) (int, error) {
	if *bw.n <= 0 {
		return 0, os.ErrClosed
	}
	*bw.n -= int64(len(p))
	return bw.w.Write(p)
}

// TestCollectorStoreDegradesMidRun kills the disk under a live collector
// and checks the loud-availability contract: ingest keeps working, the
// degradation is counted, and /healthz says so.
func TestCollectorStoreDegradesMidRun(t *testing.T) {
	budget := int64(2048)
	opts := Options{
		StoreDir: t.TempDir(),
		Shards:   1,
		Logger:   quietLogger(),
		StoreOptions: store.Options{
			WrapWriter: func(w io.Writer) io.Writer { return budgetWriter{w: w, n: &budget} },
		},
	}
	c := New(opts)
	defer c.Close()

	for _, node := range []uint32{1, 2, 3} {
		tr := buildTrace(t, node, []string{"compute", "exchange", "io"}, 80)
		if err := c.IngestTrace(tr); err != nil {
			t.Fatalf("ingest node %d after store death: %v", node, err)
		}
		if _, err := c.NodeProfile(node); err != nil {
			t.Fatalf("node %d profile after store death: %v", node, err)
		}
	}
	if got := c.DegradedStoreShards(); got != 1 {
		t.Fatalf("DegradedStoreShards = %d, want 1", got)
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	// Rankings over a window do not need the store: the degraded shard's
	// nodes are all in it, committed to disk or not.
	code, ranked, _ := get(t, srv, "/api/hotspots?window=1h&k=0")
	for _, node := range []string{`"node": 1,`, `"node": 2,`, `"node": 3,`} {
		if code != 200 || !strings.Contains(ranked, node) {
			t.Fatalf("trailing window on a degraded shard: status %d, missing %s\n%s", code, node, ranked)
		}
	}
	res, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/healthz status %d while degraded (must stay a liveness 200)", res.StatusCode)
	}
	if !strings.HasPrefix(string(body), "degraded\n") || !strings.Contains(string(body), "memory-only") {
		t.Fatalf("/healthz body does not surface degradation:\n%s", body)
	}
}

// TestCollectorStoreOpenFailureDegrades points StoreDir inside a regular
// file: every shard's store fails to open and the collector must come up
// memory-only rather than not at all.
func TestCollectorStoreOpenFailureDegrades(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{StoreDir: filepath.Join(blocker, "store"), Shards: 2, Logger: quietLogger()}
	c := New(opts)
	defer c.Close()
	if got := c.DegradedStoreShards(); got != 2 {
		t.Fatalf("DegradedStoreShards = %d, want 2", got)
	}
	tr := buildTrace(t, 1, []string{"compute"}, 10)
	if err := c.IngestTrace(tr); err != nil {
		t.Fatalf("memory-only ingest failed: %v", err)
	}
}

// TestHealthzOKWhenDurable pins the healthy /healthz body — exactly
// "ok\n" — which scripts/collectd_smoke.sh greps for.
func TestHealthzOKWhenDurable(t *testing.T) {
	c := New(Options{StoreDir: t.TempDir(), Logger: quietLogger()})
	defer c.Close()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if rec.Body.String() != "ok\n" {
		t.Fatalf("/healthz body %q, want \"ok\\n\"", rec.Body.String())
	}
}
