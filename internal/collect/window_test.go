package collect

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"tempest/internal/parser"
	"tempest/internal/store"
	"tempest/internal/trace"
)

// windowFixture builds the deterministic mixed-history collector the
// endpoint goldens query: one shard, 1-minute segments and archive
// granules, 5-minute retention. Node 1's events are ingested at t0 and
// aged out into the folded archive when node 2's ingest at t0+8m rolls
// the segment; node 2 stays raw. The returned walls are the two commit
// instants.
func windowFixture(t *testing.T) (*Collector, time.Time, time.Time) {
	t.Helper()
	clk := newStoreClock()
	opts := Options{
		StoreDir: t.TempDir(),
		Shards:   1,
		Logger:   quietLogger(),
		Now:      clk.now,
		StoreOptions: store.Options{
			Window:    time.Minute,
			Retention: 5 * time.Minute,
		},
	}
	c := New(opts)
	t.Cleanup(func() { c.Close() })
	t0 := clk.now()
	if err := c.IngestTrace(buildTrace(t, 1, []string{"compute", "exchange"}, 50)); err != nil {
		t.Fatal(err)
	}
	clk.advance(8 * time.Minute)
	t1 := clk.now()
	if err := c.IngestTrace(buildTrace(t, 2, []string{"compute", "io"}, 60)); err != nil {
		t.Fatal(err)
	}
	return c, t0, t1
}

func rfc3339(ts time.Time) string { return ts.UTC().Format(time.RFC3339Nano) }

func TestHTTPWindowEndpointsGolden(t *testing.T) {
	c, t0, t1 := windowFixture(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// Node 1's history is fully archived, node 2's fully raw: the window
	// listing shows both granularities.
	code, body, _ := get(t, srv, "/api/windows/1")
	if code != 200 {
		t.Fatalf("/api/windows/1 status %d:\n%s", code, body)
	}
	checkGolden(t, "windows_archived_node", body)
	code, body, _ = get(t, srv, "/api/windows/2")
	if code != 200 {
		t.Fatalf("/api/windows/2 status %d:\n%s", code, body)
	}
	checkGolden(t, "windows_raw_node", body)

	// A trailing window wide enough for both nodes ranks both from their
	// live builders: node 1's batches were compacted away mid-run, but
	// what this process ingested it still holds — samples included, so
	// node 1 is in the node ranking too — and says what it covers.
	code, body, _ = get(t, srv, "/api/hotspots?window=30m&k=5")
	if code != 200 {
		t.Fatalf("hotspots window status %d:\n%s", code, body)
	}
	if !strings.Contains(body, `"window": "30m0s"`) {
		t.Errorf("response does not echo the window:\n%s", body)
	}
	if !strings.Contains(body, `"window_from": "2023-11-14T21:51:00Z"`) || !strings.Contains(body, `"window_to": "2023-11-14T22:22:00Z"`) {
		t.Errorf("response does not state the minutes it covers:\n%s", body)
	}
	checkGolden(t, "hotspots_window_mixed", body)

	// Range spanning raw history only: rows plus the window comment.
	code, body, hdr := get(t, srv, fmt.Sprintf("/api/series/2?from=%s&to=%s",
		rfc3339(t1), rfc3339(t1.Add(time.Minute))))
	if code != 200 || !strings.HasPrefix(hdr.Get("Content-Type"), "text/csv") {
		t.Fatalf("raw-range series: status %d type %q", code, hdr.Get("Content-Type"))
	}
	checkGolden(t, "series_window_raw", body)

	// Range spanning only compacted history: 200 with the explicit
	// truncation marker, never a silent empty series.
	code, body, _ = get(t, srv, fmt.Sprintf("/api/series/1?from=%s&to=%s",
		rfc3339(t0.Add(-time.Minute)), rfc3339(t0.Add(time.Minute))))
	if code != 200 {
		t.Fatalf("archived-range series status %d:\n%s", code, body)
	}
	if !strings.Contains(body, "# truncated:") {
		t.Fatalf("archived-range series lacks truncation marker:\n%s", body)
	}
	checkGolden(t, "series_window_archived", body)

	// Empty range: an answer (headers, no rows), not an error.
	code, body, _ = get(t, srv, fmt.Sprintf("/api/series/2?from=%s&to=%s",
		rfc3339(t1), rfc3339(t1)))
	if code != 200 {
		t.Fatalf("empty-range series status %d:\n%s", code, body)
	}
	checkGolden(t, "series_window_empty", body)

	// Range entirely before the first stored record: clean empty series.
	code, body, _ = get(t, srv, fmt.Sprintf("/api/series/1?from=%s&to=%s",
		rfc3339(t0.Add(-2*time.Hour)), rfc3339(t0.Add(-time.Hour))))
	if code != 200 {
		t.Fatalf("before-history series status %d:\n%s", code, body)
	}
	if strings.Contains(body, "# truncated:") {
		t.Errorf("range before history claims truncation:\n%s", body)
	}
	checkGolden(t, "series_window_before", body)

	// Parameter and existence failures.
	for path, want := range map[string]int{
		// Reversed range: from after to.
		fmt.Sprintf("/api/series/2?from=%s&to=%s", rfc3339(t1.Add(time.Hour)), rfc3339(t1)): 400,
		"/api/series/2?from=2026-01-01T00:00:00Z":                                           400, // from without to
		"/api/series/2?to=2026-01-01T00:00:00Z":                                             400, // to without from
		"/api/series/2?from=nonsense&to=2026-01-01T00:00:00Z":                               400,
		"/api/series/99?from=0&to=1":                                                        404, // unknown node, well-formed range
		"/api/windows/99":                                                                   404,
		"/api/windows/bad":                                                                  400,
	} {
		if code, _, _ := get(t, srv, path); code != want {
			t.Errorf("%s status = %d, want %d", path, code, want)
		}
	}
}

// TestWindowQueriesWithoutStore pins the memory-only contract: rankings
// over a window come from the live builders and need no store — the
// window that covers everything is the all-time answer — while a ranged
// series, which is rebuilt from raw batches, answers 503 (not 404, not
// empty 200).
func TestWindowQueriesWithoutStore(t *testing.T) {
	c := goldenCollector(t, 2)
	all, err := c.Hotspots(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	win, err := c.WindowHotspots(0, 10, 0, math.MaxInt64)
	if err != nil {
		t.Fatalf("WindowHotspots without store: %v", err)
	}
	if win.WindowFrom == "" || win.WindowTo == "" {
		t.Errorf("ranged answer does not say what it covers: %+v", win)
	}
	win.WindowFrom, win.WindowTo = "", ""
	if !reflect.DeepEqual(win, all) {
		t.Errorf("window over everything:\n got %+v\nwant %+v", win, all)
	}
	if _, _, _, err := c.WindowSeries(1, 0, 1); !errors.Is(err, ErrHistoryUnavailable) {
		t.Fatalf("WindowSeries without store: %v, want ErrHistoryUnavailable", err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	for path, want := range map[string]int{
		"/api/hotspots?window=30m":    200,
		"/api/series/1?from=0&to=100": 503,
	} {
		if code, _, _ := get(t, srv, path); code != want {
			t.Errorf("%s status = %d, want %d", path, code, want)
		}
	}
	// The window listing still answers: it reports durable=false.
	code, body, _ := get(t, srv, "/api/windows/1")
	if code != 200 || !strings.Contains(body, `"durable": false`) {
		t.Errorf("/api/windows/1 without store: status %d body %s", code, body)
	}
}

// TestWindowHotspotsMatchesOracle is the acceptance property: over any
// range of whole granules, the time-ranged answer is exactly what an
// oracle collector fed only the in-range events produces — function set,
// heat ordering, and node rankings. The traces are a minute apart, on the
// boundaries of one-minute granules.
func TestWindowHotspotsMatchesOracle(t *testing.T) {
	clk := newStoreClock()
	clk.align(time.Minute)
	opts := Options{StoreDir: t.TempDir(), Shards: 1, Logger: quietLogger(), Now: clk.now, ArchiveGranule: time.Minute}
	c := New(opts)
	defer c.Close()

	specs := [][]string{
		{"compute", "exchange"},
		{"compute", "io"},
		{"idle_wait", "compute"},
		{"reduce", "compute"},
		{"io", "exchange"},
	}
	var traces []*traceFixture
	for i, fn := range specs {
		tf := &traceFixture{tr: buildTrace(t, uint32(i+1), fn, 30+10*i), wall: clk.now()}
		if err := c.IngestTrace(tf.tr); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tf)
		clk.advance(time.Minute)
	}
	end := traces[len(traces)-1].wall.UnixNano() + 1

	for _, rng := range [][2]int{{0, 5}, {0, 1}, {1, 4}, {2, 3}, {4, 5}, {1, 5}, {2, 2}} {
		from := traces[rng[0]].wall.UnixNano()
		to := end
		if rng[1] < len(traces) {
			to = traces[rng[1]].wall.UnixNano()
		}
		oracle := New(Options{Logger: quietLogger()})
		for i := rng[0]; i < rng[1]; i++ {
			if err := oracle.IngestTrace(traces[i].tr); err != nil {
				t.Fatal(err)
			}
		}
		want, err := oracle.Hotspots(0, 10)
		oracle.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.WindowHotspots(0, 10, from, to)
		if err != nil {
			t.Fatalf("WindowHotspots[%d,%d): %v", rng[0], rng[1], err)
		}
		if !reflect.DeepEqual(got.Functions, want.Functions) {
			t.Errorf("range [%d,%d): functions diverged from oracle:\n got %+v\nwant %+v", rng[0], rng[1], got.Functions, want.Functions)
		}
		if !reflect.DeepEqual(got.Merged, want.Merged) {
			t.Errorf("range [%d,%d): merged diverged from oracle:\n got %+v\nwant %+v", rng[0], rng[1], got.Merged, want.Merged)
		}
		if !reflect.DeepEqual(got.Nodes, want.Nodes) {
			t.Errorf("range [%d,%d): nodes diverged from oracle:\n got %+v\nwant %+v", rng[0], rng[1], got.Nodes, want.Nodes)
		}
	}
}

// TestWindowHotspotsClipsAcrossGranules: one node ships a chunk a minute
// for four minutes with "outer" open from the first event to the last and
// a call of "inner" in every chunk. A window is charged what ran inside
// it — outer for the whole of every granule it spans, entered there or
// not — and answers the same after a restart, whose replay cuts the same
// marks, and after a retention pass mid-run has taken the raw batches
// away: what this process ingested is in its builders, the store is not
// asked and nothing is counted twice.
func TestWindowHotspotsClipsAcrossGranules(t *testing.T) {
	clk := newStoreClock()
	clk.align(time.Minute)
	t0 := clk.now()
	opts := Options{
		StoreDir: t.TempDir(), Shards: 1, Logger: quietLogger(), Now: clk.now,
		SampleInterval: 10 * time.Millisecond,
		StoreOptions:   store.Options{Window: time.Minute, Retention: 10 * time.Minute},
	}
	c := New(opts)
	defer func() { c.Close() }()

	sym := trace.NewSymTab()
	outer, inner := sym.Register("outer"), sym.Register("inner")
	const chunks = 4
	cursor := 0
	for k := 0; k < chunks; k++ {
		at := func(ms int) time.Duration { return time.Duration(100*k+ms) * time.Millisecond }
		var evs []trace.Event
		if k == 0 {
			evs = append(evs, trace.Event{Kind: trace.KindEnter, FuncID: outer, TS: at(0)})
		}
		evs = append(evs,
			trace.Event{Kind: trace.KindEnter, FuncID: inner, TS: at(10)},
			trace.Event{Kind: trace.KindSample, ValueC: 50 + float64(k), TS: at(20)},
			trace.Event{Kind: trace.KindExit, FuncID: inner, TS: at(30)},
			trace.Event{Kind: trace.KindSample, ValueC: 40 + float64(k), TS: at(50)},
		)
		if k == chunks-1 {
			evs = append(evs, trace.Event{Kind: trace.KindExit, FuncID: outer, TS: at(90)})
		}
		payload, n, err := encodeChunk(evs, sym, cursor)
		if err != nil {
			t.Fatal(err)
		}
		cursor = n
		if a := c.shardFor(1).frame(1, 0, uint64(k), frameData, payload); a.err != nil {
			t.Fatal(a.err)
		}
		clk.advance(time.Minute)
	}
	clk.advance(-time.Minute) // the newest commit's minute

	// A chunk's newest timestamp is its sample at +50 ms, the last one's
	// the exit of outer at 390 ms: those are the marks' node-times.
	ms := func(n int) float64 { return (time.Duration(n) * time.Millisecond).Seconds() }
	ranges := []struct {
		from, to     int // minutes after t0
		outer, inner float64
	}{
		{0, 1, ms(50), ms(20)},
		{1, 2, ms(100), ms(20)},
		{2, 3, ms(100), ms(20)},
		{3, 4, ms(140), ms(20)},
		{2, 4, ms(240), ms(40)}, // the trailing two minutes
		{0, 4, ms(390), ms(80)},
	}
	rank := func(c *Collector) (bodies []string) {
		t.Helper()
		for _, r := range ranges {
			hot, err := c.WindowHotspots(0, 10, t0.Add(time.Duration(r.from)*time.Minute).UnixNano(), t0.Add(time.Duration(r.to)*time.Minute).UnixNano())
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]float64{}
			for _, f := range hot.Functions {
				got[f.Name] = f.TotalTimeS
			}
			if len(got) != 2 || got["outer"] != r.outer || got["inner"] != r.inner {
				t.Errorf("minutes [%d, %d): %v, want outer %v and inner %v", r.from, r.to, got, r.outer, r.inner)
			}
			js, err := json.Marshal(hot)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, string(js))
		}
		return bodies
	}
	live := rank(c)
	all, err := c.Hotspots(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := c.WindowHotspots(0, 10, 0, math.MaxInt64)
	whole.WindowFrom, whole.WindowTo = "", ""
	if !reflect.DeepEqual(whole, all) {
		t.Errorf("a window over everything:\n got %+v\nwant %+v", whole, all)
	}

	// A trailing window narrower than a granule says that it answers for
	// whole ones: half a minute back from the start of minute 3 is minutes
	// 2 and 3.
	srv := httptest.NewServer(c.Handler())
	code, body, _ := get(t, srv, "/api/hotspots?window=30s")
	srv.Close()
	if code != 200 || !strings.Contains(body, fmt.Sprintf(`"window_from": %q`, rfc3339(t0.Add(2*time.Minute)))) || !strings.Contains(body, fmt.Sprintf(`"window_to": %q`, rfc3339(t0.Add(4*time.Minute)))) {
		t.Errorf("?window=30s at minute 3: status %d, want whole minutes 2 and 3:\n%s", code, body)
	}

	c.Close()
	c = New(opts)
	if got := rank(c); !reflect.DeepEqual(got, live) {
		t.Errorf("after a restart:\n got %v\nwant %v", got, live)
	}

	// Twenty minutes on, other nodes' chunks open a segment and roll it,
	// and every batch of node 1 ages out into the archive.
	rangeReads := c.metrics.debug.Counter("tempest_store_range_reads_total", "") // the store's own
	reads := rangeReads.Value()
	for node := uint32(2); node <= 3; node++ {
		clk.advance(10 * time.Minute)
		if err := c.IngestTrace(buildTrace(t, node, []string{"compute"}, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if w, err := c.NodeWindows(1); err != nil || len(w.Windows) == 0 || w.Windows[0].Kind != "archived" {
		t.Fatalf("node 1 after the retention pass: %+v, %v; want archived windows", w, err)
	}
	if got := rank(c); !reflect.DeepEqual(got, live) {
		t.Errorf("after a retention pass mid-run:\n got %v\nwant %v", got, live)
	}
	srv = httptest.NewServer(c.Handler())
	code, _, _ = get(t, srv, "/api/hotspots?window=1h")
	srv.Close()
	if code != 200 {
		t.Errorf("?window=1h: status %d", code)
	}
	if got := rangeReads.Value(); got != reads || c.metrics.windowQueries.Value() != 0 {
		t.Errorf("rankings read the store: %d range reads, %d window decodes", got-reads, c.metrics.windowQueries.Value())
	}
	// The counters are the ones a ranged series moves.
	if _, _, _, err := c.WindowSeries(2, 0, math.MaxInt64); err != nil || rangeReads.Value() != reads+1 || c.metrics.windowQueries.Value() != 1 {
		t.Errorf("a ranged series: %v, %d range reads, %d window decodes; want one of each", err, rangeReads.Value()-reads, c.metrics.windowQueries.Value())
	}
}

type traceFixture struct {
	tr   *trace.Trace
	wall time.Time
}

// TestWindowHotspotsCompactedMatchesOracle checks the archived side of
// the acceptance property: after retention folds raw history into
// granule windows, a range covering those windows still answers exactly
// like the uncompacted oracle (function set and ordering) — the fold is
// associative, so the granularity loss never changes a covered ranking.
func TestWindowHotspotsCompactedMatchesOracle(t *testing.T) {
	clk := newStoreClock()
	dir := t.TempDir()
	opts := Options{
		StoreDir: dir,
		Shards:   1,
		Logger:   quietLogger(),
		Now:      clk.now,
		StoreOptions: store.Options{
			Window:    time.Minute,
			Retention: 5 * time.Minute,
		},
		ArchiveGranule: time.Minute,
	}
	oracle := New(Options{Logger: quietLogger()})
	defer oracle.Close()

	c1 := New(opts)
	t0 := clk.now()
	for i, fn := range [][]string{{"compute", "exchange"}, {"compute", "io"}} {
		tr := buildTrace(t, uint32(i+1), fn, 50+10*i)
		if err := c1.IngestTrace(tr); err != nil {
			t.Fatal(err)
		}
		if err := oracle.IngestTrace(tr); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Minute)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Hotspots(0, 10)
	if err != nil {
		t.Fatal(err)
	}

	// Reopen far past retention: everything folds into per-minute archive
	// windows; raw history is gone.
	clk.advance(10 * time.Minute)
	c2 := New(opts)
	defer c2.Close()
	got, err := c2.WindowHotspots(0, 10, t0.Add(-time.Hour).UnixNano(), clk.now().UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Functions, want.Functions) {
		t.Errorf("archived-range functions diverged from oracle:\n got %+v\nwant %+v", got.Functions, want.Functions)
	}
	if !reflect.DeepEqual(got.Merged, want.Merged) {
		t.Errorf("archived-range merged diverged from oracle:\n got %+v\nwant %+v", got.Merged, want.Merged)
	}
}

// TestCompactorSplitsOpenSpanAcrossBuckets: f is entered in one granule
// and returns in the next. The compactor cuts its buckets with marks on
// one builder, so f lands in both buckets with its clipped length, and
// the two add up to what a pass that folds both chunks into one bucket
// reports. A builder per bucket charged the second bucket nothing: the
// exit was an orphan there.
func TestCompactorSplitsOpenSpanAcrossBuckets(t *testing.T) {
	sym := trace.NewSymTab()
	f := sym.Register("f")
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	chunks := [][]trace.Event{
		{{Kind: trace.KindEnter, FuncID: f, TS: 0}, {Kind: trace.KindSample, ValueC: 40, TS: ms(100)}, {Kind: trace.KindSample, ValueC: 42, TS: ms(250)}},
		{{Kind: trace.KindSample, ValueC: 50, TS: ms(500)}, {Kind: trace.KindExit, FuncID: f, TS: ms(1000)}},
	}
	t0 := newStoreClock().now().Truncate(time.Hour)
	var batches []store.Batch
	cursor := 0
	for k, evs := range chunks {
		payload, n, err := encodeChunk(evs, sym, cursor)
		if err != nil {
			t.Fatal(err)
		}
		cursor = n
		batches = append(batches, store.Batch{Node: 1, Seq: uint64(k), WallNano: t0.Add(time.Duration(k) * time.Minute).UnixNano(), Payload: payload})
	}
	totals := func(granule time.Duration) (out []float64) {
		t.Helper()
		blob, err := NewCompactor(parser.Celsius, 10*time.Millisecond, granule)(nil, batches)
		if err != nil {
			t.Fatal(err)
		}
		arch, err := decodeArchive(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(arch.nodes) != 1 || arch.nodes[0].events != 5 {
			t.Fatalf("granule %v: archive nodes %+v, want node 1 with 5 events", granule, arch.nodes)
		}
		for _, w := range arch.windows {
			if len(w.nodes) != 1 || len(w.nodes[0].heat) != 1 || len(w.nodes[0].heat[0]) != 1 || w.nodes[0].heat[0][0].Name != "f" {
				t.Fatalf("granule %v: window %+v, want f alone", granule, w)
			}
			out = append(out, w.nodes[0].heat[0][0].TotalTimeS)
		}
		return out
	}
	split, whole := totals(time.Minute), totals(time.Hour)
	if len(split) != 2 || split[0] != 0.25 || split[1] != 0.75 || len(whole) != 1 || whole[0] != split[0]+split[1] {
		t.Errorf("f by the minute %v, by the hour %v; want 0.25 s and 0.75 s adding up to the hour's", split, whole)
	}
}

// TestWindowDecodeCacheAndInvalidation pins the LRU contract of ranged
// series: a repeated range is served from cache, another node's read of
// the same range is a decode of its own, and an append landing inside a
// cached range evicts it so the next query sees the new events. A decode
// holds the node it was asked for and nothing else.
func TestWindowDecodeCacheAndInvalidation(t *testing.T) {
	clk := newStoreClock()
	opts := Options{StoreDir: t.TempDir(), Shards: 1, Logger: quietLogger(), Now: clk.now}
	c := New(opts)
	defer c.Close()
	for node := uint32(1); node <= 2; node++ {
		if err := c.IngestTrace(buildTrace(t, node, []string{"compute"}, 20)); err != nil {
			t.Fatal(err)
		}
	}
	from := clk.now().Add(-time.Minute).UnixNano()
	to := clk.now().Add(time.Hour).UnixNano()
	series := func(node uint32, queries, hits uint64) *parser.NodeProfile {
		t.Helper()
		np, _, _, err := c.WindowSeries(node, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if q, h := c.metrics.windowQueries.Value(), c.metrics.windowCacheHits.Value(); q != queries || h != hits {
			t.Fatalf("after query %d: queries=%d hits=%d, want %d/%d", queries, q, h, queries, hits)
		}
		if np == nil || np.NodeID != node {
			t.Fatalf("series of node %d: %+v", node, np)
		}
		return np
	}
	q1 := series(1, 1, 0)
	if q2 := series(1, 2, 1); q2 != q1 {
		t.Fatalf("repeat query was not served the cached profile")
	}
	series(2, 3, 1)
	series(2, 4, 2)
	if n := c.shards[0].hist.lru.Len(); n != 2 {
		t.Fatalf("%d cached decodes, want one per node asked for", n)
	}

	// A commit inside the cached ranges must evict them — and the
	// re-decode must see the new events.
	clk.advance(time.Minute)
	extra := buildTrace(t, 1, []string{"compute"}, 20)
	payload, _, err := encodeChunk(extra.Events, extra.Sym, extra.Sym.Len())
	if err != nil {
		t.Fatal(err)
	}
	if a := c.shards[0].frame(1, 0, 1, frameData, payload); a.err != nil {
		t.Fatal(a.err)
	}
	if n := c.shards[0].hist.lru.Len(); n != 0 {
		t.Fatalf("%d cached decodes survive a commit inside their range", n)
	}
	if q3 := series(1, 5, 2); len(q3.Samples[0]) != 2*len(q1.Samples[0]) {
		t.Fatalf("stale cache: %d samples after the append, %d before", len(q3.Samples[0]), len(q1.Samples[0]))
	}
}
