package collect

import (
	"bytes"
	"fmt"
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

	"tempest/internal/nodefold"
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

// TestRestartRecoversEveryShard restarts a four-shard collector whose
// shards recover side by side, one of them over a torn tail and one whose
// directory will not open: the torn shard salvages, the blocked one
// degrades alone, and every node on a healthy shard comes back byte-equal
// to a collector that never restarted: its profile, its critical path and
// its timeline — one of them over a track that halved before the
// restart.
func TestRestartRecoversEveryShard(t *testing.T) {
	dir := t.TempDir()
	opts := Options{StoreDir: dir, Shards: 4, Logger: quietLogger()}
	oracle, oracleAddr := startCollector(t, Options{Shards: 4, Logger: quietLogger()})
	c1, addr := startCollector(t, opts)
	// Shard 1's final segment will get a torn tail that holds nothing
	// acked; shard 2's directory will become a regular file.
	const torn, blocked = 1, 2

	// Nodes 1..8 land on every shard; odd nodes ship, even ones upload.
	// The first node on a healthy shard makes 2×nodefold.CritTrackCap+2
	// transitions on its one lane, so its track halves more than twice.
	onShard := map[uint32]int{}
	covered := map[int]bool{}
	var traces []*trace.Trace
	long := uint32(0)
	for node := uint32(1); node <= 8; node++ {
		onShard[node] = c1.shardFor(node).id
		covered[onShard[node]] = true
		calls := 30 + 5*int(node)
		if long == 0 && onShard[node] != blocked {
			long, calls = node, nodefold.CritTrackCap+1
		}
		tr := buildTrace(t, node, []string{"compute", "exchange", "io"}, calls)
		traces = append(traces, tr)
		if node%2 == 1 {
			if err := c1.IngestTrace(tr); err != nil {
				t.Fatal(err)
			}
			if err := oracle.IngestTrace(tr); err != nil {
				t.Fatal(err)
			}
		} else {
			uploadBulk(t, addr, tr)
			uploadBulk(t, oracleAddr, tr)
		}
	}
	if len(covered) != 4 {
		t.Fatalf("nodes 1..8 cover shards %v, want all 4", covered)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := store.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, store.ShardDirName(torn), "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("shard %d segments: %v %v", torn, segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn!")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	blockedDir := filepath.Join(dir, store.ShardDirName(blocked))
	if err := os.RemoveAll(blockedDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blockedDir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	healthyBatches := uint64(0)
	for _, s := range rep.Shards {
		if filepath.Base(s.Dir) != store.ShardDirName(blocked) {
			healthyBatches += uint64(s.Batches)
		}
	}

	c2 := New(opts)
	defer c2.Close()
	srv, oracleSrv := httptest.NewServer(c2.Handler()), httptest.NewServer(oracle.Handler())
	defer srv.Close()
	defer oracleSrv.Close()
	if got := c2.DegradedStoreShards(); got != 1 {
		t.Fatalf("DegradedStoreShards = %d, want 1", got)
	}
	counter := func(name string) uint64 { return c2.metrics.debug.Counter(name, "").Value() }
	if got := counter("tempest_store_salvaged_tails_total"); got != 1 {
		t.Errorf("SalvagedTails = %d, want 1", got)
	}
	if got := counter("tempest_store_replayed_batches_total"); got != healthyBatches {
		t.Errorf("ReplayedBatches = %d, want the healthy shards' %d", got, healthyBatches)
	}
	if got := counter("tempest_store_recovery_errors_total"); got != 0 {
		t.Errorf("RecoveryErrors = %d, want 0", got)
	}
	for _, tr := range traces {
		got, err := c2.NodeProfile(tr.NodeID)
		if onShard[tr.NodeID] == blocked {
			if err == nil {
				t.Errorf("node %d on the degraded shard answers after restart", tr.NodeID)
			}
			continue
		}
		if err != nil {
			t.Fatalf("node %d lost across restart: %v", tr.NodeID, err)
		}
		want, err := oracle.NodeProfile(tr.NodeID)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := renderNode(t, got), renderNode(t, want); g != w {
			t.Errorf("node %d (shard %d) diverged across restart:\n--- recovered ---\n%s--- oracle ---\n%s",
				tr.NodeID, onShard[tr.NodeID], g, w)
		}
		for _, api := range []string{"/api/critpath", "/api/timeline"} {
			path := fmt.Sprintf("%s/%d", api, tr.NodeID)
			gc, g, _ := get(t, srv, path)
			wc, w, _ := get(t, oracleSrv, path)
			if gc != 200 || wc != 200 || g != w {
				t.Errorf("%s (status %d, oracle %d) diverged across restart:\n--- recovered ---\n%s--- oracle ---\n%s",
					path, gc, wc, g, w)
			}
		}
	}

	// An unhalved segment of buildTrace's lane spans at most 4 ms (a
	// call) and a once-halved one at most 5 ms (a call and the gap after
	// it), so a longer first segment means the track halved twice.
	_, tracks, _, err := oracle.CritPath(long)
	if err != nil || len(tracks) != 1 || len(tracks[0].Segments) == 0 {
		t.Fatalf("node %d: %d tracks, err %v", long, len(tracks), err)
	}
	if s := tracks[0].Segments[0]; s.End-s.Start <= 5*time.Millisecond {
		t.Errorf("node %d's track did not halve twice: first segment spans %v", long, s.End-s.Start)
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
