package collect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"tempest/internal/critpath"
	"tempest/internal/nodefold"
	"tempest/internal/parser"
	"tempest/internal/report"
	"tempest/internal/store"
	"tempest/internal/trace"
	"tempest/internal/tracegen"
)

// shipChunks feeds events to node's shard as consecutive self-contained
// chunks of at most chunk events — the frames a Shipper would write,
// minus the socket. symCursor is how many of sym's names the collector
// already holds for the node.
func shipChunks(t testing.TB, c *Collector, node uint32, sym *trace.SymTab, symCursor int, evs []trace.Event, chunk int) ack {
	t.Helper()
	sh := c.shardFor(node)
	resp := sh.resume(node, 0)
	seq := resp.resume
	for at := 0; at < len(evs); at += chunk {
		payload, n, err := encodeChunk(evs[at:min(at+chunk, len(evs))], sym, symCursor)
		if err != nil {
			t.Fatal(err)
		}
		symCursor = n
		if resp = sh.frame(node, 0, seq, frameData, payload); resp.err != nil {
			return resp
		}
		seq++
	}
	return resp
}

// standalone folds evs the way the collector's consumers would if each
// matched stacks for itself: a Builder and an Analyzer with the
// collector's options, the Analyzer fed only what the Builder consumed.
func standalone(t *testing.T, c *Collector, node uint32, sym *trace.SymTab, evs []trace.Event, midStream bool) (*parser.Builder, *critpath.Analyzer) {
	t.Helper()
	b := parser.NewBuilder(node, sym, parser.Options{Unit: c.opts.Unit, MidStream: midStream})
	berr := b.Add(evs)
	a := critpath.New(critpath.Options{Timeline: true, MaxTrackSegments: nodefold.CritTrackCap})
	if err := a.Add(node, sym, evs[:b.Events()]); err != nil {
		t.Fatal(err)
	}
	if berr == nil && int(b.Events()) != len(evs) {
		t.Fatalf("builder consumed %d of %d events without an error", b.Events(), len(evs))
	}
	return b, a
}

// wantBodies renders what the three per-node endpoints must answer for a
// node whose history is exactly what b and a were fed.
func wantBodies(t *testing.T, c *Collector, b *parser.Builder, a *critpath.Analyzer) (profile, crit, timeline string) {
	t.Helper()
	indent := func(v any) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if np, err := b.Snapshot(); err == nil {
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, &parser.Profile{Unit: c.opts.Unit, Nodes: []parser.NodeProfile{*np}}); err != nil {
			t.Fatal(err)
		}
		profile = buf.String()
	}
	return profile, indent(a.Summary()), indent(report.BuildTimelineJSON(a.Tracks(), a.Duration()))
}

// checkNodeBodies compares the collector's answers for node, byte for
// byte, with the standalone folds'. A poisoned builder has no profile:
// the endpoint must refuse, and the node's status must carry the
// standalone Builder's own error.
func checkNodeBodies(t *testing.T, c *Collector, node uint32, b *parser.Builder, a *critpath.Analyzer) {
	t.Helper()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	wantProfile, wantCrit, wantTimeline := wantBodies(t, c, b, a)
	code, body, _ := get(t, srv, fmt.Sprintf("/api/profile/%d?format=json", node))
	if berr := b.Add(nil); berr != nil { // a poisoned Builder returns its error from every Add
		if code != 404 {
			t.Errorf("/api/profile of a poisoned node: status %d, want 404", code)
		}
		for _, st := range c.Nodes() {
			if st.NodeID == node && st.Err != berr.Error() {
				t.Errorf("node error %q, want the standalone Builder's %q", st.Err, berr)
			}
		}
	} else if code != 200 || body != wantProfile {
		t.Errorf("/api/profile/%d (status %d) differs from the standalone Builder's profile", node, code)
	}
	if code, body, _ := get(t, srv, fmt.Sprintf("/api/critpath/%d", node)); code != 200 || body != wantCrit {
		t.Errorf("/api/critpath/%d (status %d) differs from the standalone Analyzer:\n got %s\nwant %s", node, code, body, wantCrit)
	}
	if code, body, _ := get(t, srv, fmt.Sprintf("/api/timeline/%d", node)); code != 200 || body != wantTimeline {
		t.Errorf("/api/timeline/%d (status %d) differs from the standalone Analyzer", node, code)
	}
}

// TestOnePassMatchesStandaloneFolds is the single pass's contract: on
// every collector path that folds events — shipped chunks, bulk batches,
// store replay — stepping one core and applying both consumers answers
// /api/profile, /api/critpath and /api/timeline exactly as a Builder and
// an Analyzer that each matched the stacks themselves. The streams are
// tracegen's: eight lanes, hot functions that recurse, siblings back to
// back, waits.
func TestOnePassMatchesStandaloneFolds(t *testing.T) {
	const n, chunk = 60_000, 4096
	gen := func(seed int64) (*trace.SymTab, []trace.Event) {
		g := tracegen.New(tracegen.Config{Seed: seed, Lanes: 8, SampleEvery: 20 * time.Millisecond})
		return g.Sym(), g.Fill(nil, n)
	}

	t.Run("shipped chunks", func(t *testing.T) {
		sym, evs := gen(11)
		c := New(Options{Shards: 1, Logger: quietLogger()})
		defer c.Close()
		if resp := shipChunks(t, c, 1, sym, 0, evs, chunk); resp.err != nil {
			t.Fatal(resp.err)
		}
		b, a := standalone(t, c, 1, sym, evs, false)
		checkNodeBodies(t, c, 1, b, a)
	})

	t.Run("bulk batches", func(t *testing.T) {
		sym, evs := gen(12)
		c := New(Options{Shards: 1, Logger: quietLogger()})
		defer c.Close()
		sh := c.shardFor(2)
		for at := 0; at < n; at += chunk {
			// The shard rewrites function ids in the batch it is lent.
			batch := append([]trace.Event(nil), evs[at:min(at+chunk, n)]...)
			if resp := sh.bulk(2, 0, batch, sym); resp.err != nil {
				t.Fatal(resp.err)
			}
		}
		b, a := standalone(t, c, 2, sym, evs, false)
		checkNodeBodies(t, c, 2, b, a)
	})

	t.Run("poison mid-batch", func(t *testing.T) {
		// An exit nothing opened, deep inside the sixth chunk: the Builder
		// refuses it, the node is poisoned, and the Analyzer must hold
		// exactly the events before it — not the whole chunk, not none of
		// it.
		sym, evs := gen(13)
		at := 5*chunk + 1234
		evs = append(evs[:at:at], append([]trace.Event{{Kind: trace.KindExit, Lane: 9, FuncID: 3, TS: evs[at].TS}}, evs[at:]...)...)
		c := New(Options{Shards: 1, Logger: quietLogger()})
		defer c.Close()
		if resp := shipChunks(t, c, 3, sym, 0, evs, chunk); resp.err == nil {
			t.Fatal("orphan exit did not poison the node")
		}
		b, a := standalone(t, c, 3, sym, evs, false)
		if berr := b.Add(nil); berr == nil || int(b.Events()) != at {
			t.Fatalf("standalone Builder took %d events (err %v), want %d and an error", b.Events(), berr, at)
		}
		checkNodeBodies(t, c, 3, b, a)
	})

	t.Run("mid-stream attach and replay", func(t *testing.T) {
		// The first half of the stream ages out and is compacted away, so
		// the node comes back attached mid-stream: the second half opens
		// with exits of calls the collector never saw enter. It is shipped
		// live, then replayed from the store by a third collector.
		sym, evs := gen(14)
		clk := newStoreClock()
		opts := Options{
			StoreDir: t.TempDir(), Shards: 1, Logger: quietLogger(), Now: clk.now,
			StoreOptions: store.Options{Window: time.Minute, Retention: 5 * time.Minute},
		}
		c1 := New(opts)
		if resp := shipChunks(t, c1, 4, sym, 0, evs[:n/2], chunk); resp.err != nil {
			t.Fatal(resp.err)
		}
		c1.Close()
		clk.advance(10 * time.Minute)

		c2 := New(opts) // compacts the first half at Open
		if st := c2.Nodes(); len(st) != 1 || st[0].ArchivedEvents != n/2 {
			t.Fatalf("after compaction: %+v, want one node with %d archived events", st, n/2)
		}
		if resp := shipChunks(t, c2, 4, sym, sym.Len(), evs[n/2:], chunk); resp.err != nil {
			t.Fatal(resp.err)
		}
		b, a := standalone(t, c2, 4, sym, evs[n/2:], true)
		if a.StackAnomalies() == 0 {
			t.Fatal("the second half opens no unmatched exit: the case tests nothing")
		}
		checkNodeBodies(t, c2, 4, b, a)
		c2.Close()

		c3 := New(opts)
		defer c3.Close()
		checkNodeBodies(t, c3, 4, b, a)
	})
}

// TestRangedReadsIndependentOfRangePosition pins the symbols-only prefix
// pass: a range read must resolve function and marker ids through every
// symbol the chunks before the range registered, without decoding those
// chunks' events. Ten chunks a minute apart each register fresh symbols
// (a function and a sensor label), so a slice's ids only resolve if the
// whole prefix's headers were folded; an early and a late slice are
// compared with the bodies the full-decode prefix pass served
// (testdata/series_slice_*.golden, generated at the commit before the
// prefix pass). The ranking over the same two chunks — their one-minute
// granules — comes from the live builder's marks and must say what the
// decode said (testdata/hotspots_slice_*.golden: the decode's bodies plus
// the bounds a ranged answer now states).
func TestRangedReadsIndependentOfRangePosition(t *testing.T) {
	clk := newStoreClock()
	c := New(Options{
		StoreDir: t.TempDir(), Shards: 1, Logger: quietLogger(), Now: clk.now,
		StoreOptions: store.Options{Window: time.Hour}, ArchiveGranule: time.Minute,
	})
	defer c.Close()
	sym := trace.NewSymTab()
	shared := sym.Register("shared.loop")
	sh := c.shardFor(1)
	cursor := 0
	var walls []time.Time
	for k := 0; k < 10; k++ {
		label := sym.Register(fmt.Sprintf("sensor:0:probe-%d", k))
		fn := sym.Register(fmt.Sprintf("phase.fn%d", k))
		base := time.Duration(k) * 100 * time.Millisecond
		at := func(ms int) time.Duration { return base + time.Duration(ms)*time.Millisecond }
		evs := []trace.Event{
			{Kind: trace.KindMarker, FuncID: label, TS: at(0)},
			{Kind: trace.KindEnter, FuncID: shared, TS: at(1)},
			{Kind: trace.KindSample, ValueC: 40 + float64(k), TS: at(5)},
			{Kind: trace.KindEnter, FuncID: fn, TS: at(10)},
			{Kind: trace.KindSample, ValueC: 50 + 2*float64(k), TS: at(30)},
			{Kind: trace.KindSample, ValueC: 51 + 2*float64(k), TS: at(60)},
			{Kind: trace.KindExit, FuncID: fn, TS: at(70)},
			{Kind: trace.KindSample, ValueC: 41 + float64(k), TS: at(80)},
			{Kind: trace.KindExit, FuncID: shared, TS: at(90)},
		}
		payload, n, err := encodeChunk(evs, sym, cursor)
		if err != nil {
			t.Fatal(err)
		}
		cursor = n
		walls = append(walls, clk.now())
		if resp := sh.frame(1, 0, uint64(k), frameData, payload); resp.err != nil {
			t.Fatal(resp.err)
		}
		clk.advance(time.Minute)
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	for name, r := range map[string][2]time.Time{
		"early": {walls[1], walls[3]},
		"late":  {walls[7], walls[9]},
	} {
		code, body, _ := get(t, srv, fmt.Sprintf("/api/series/1?from=%s&to=%s", rfc3339(r[0]), rfc3339(r[1])))
		if code != 200 {
			t.Fatalf("%s series slice: status %d:\n%s", name, code, body)
		}
		checkGolden(t, "series_slice_"+name, body)
		hot, err := c.WindowHotspots(0, 10, r[0].Truncate(time.Minute).UnixNano(), r[1].Truncate(time.Minute).UnixNano())
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.MarshalIndent(hot, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "hotspots_slice_"+name, string(js)+"\n")
	}
}
