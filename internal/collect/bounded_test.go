package collect

import (
	"bytes"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"tempest/internal/trace"
	"tempest/internal/tracegen"
)

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// nodeStatus returns one node's /api/nodes entry.
func nodeStatus(t *testing.T, c *Collector, id uint32) NodeStatus {
	t.Helper()
	for _, st := range c.Nodes() {
		if st.NodeID == id {
			return st
		}
	}
	t.Fatalf("node %d not in Nodes()", id)
	return NodeStatus{}
}

// TestNodesReportTruncation: /api/nodes says "truncated" for a node whose
// upload was torn, on every path that can learn of it — a bulk stream cut
// inside a segment, a trace already marked truncated when it is ingested,
// and the replay of either after a restart — and agrees with the node's
// profile.
func TestNodesReportTruncation(t *testing.T) {
	opts := Options{StoreDir: t.TempDir(), Logger: quietLogger()}
	c1, addr := startCollector(t, opts)

	var buf bytes.Buffer
	if err := buildTrace(t, 1, []string{"compute", "exchange"}, 50).WriteSegmented(&buf, 32); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf.Bytes()[:buf.Len()-5]); err != nil { // torn inside the last segment
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	io.Copy(io.Discard, conn) // until the collector is done with the stream
	conn.Close()

	marked := buildTrace(t, 2, []string{"compute", "io"}, 40)
	marked.Truncated = true
	if err := c1.IngestTrace(marked); err != nil {
		t.Fatal(err)
	}
	if err := c1.IngestTrace(buildTrace(t, 3, []string{"compute"}, 30)); err != nil {
		t.Fatal(err)
	}

	check := func(when string, c *Collector) {
		t.Helper()
		for id, want := range map[uint32]bool{1: true, 2: true, 3: false} {
			if got := nodeStatus(t, c, id).Truncated; got != want {
				t.Errorf("%s: node %d truncated=%v in Nodes(), want %v", when, id, got, want)
			}
			np, err := c.NodeProfile(id)
			if err != nil {
				t.Fatal(err)
			}
			if np.Truncated != want {
				t.Errorf("%s: node %d truncated=%v in its profile, want %v", when, id, np.Truncated, want)
			}
		}
	}
	check("live", c1)
	c1.Close()
	c2 := New(opts)
	defer c2.Close()
	check("after restart", c2)
}

// TestDecodeScratchIsPerShard: one 4096-event chunk from each of 256
// nodes on one shard. The decoded batch (40 B an event, 160 kB a chunk)
// lives in one buffer the shard owns, not in one per node that stays as
// large as the largest chunk the node ever sent. The chunk is a loop of
// back-to-back calls, which leaves a node one span and one timeline
// segment, so that what a node costs here is its tables — and would be
// dominated by a decode buffer of its own.
func TestDecodeScratchIsPerShard(t *testing.T) {
	const nodes, perChunk = 256, 4096
	sym := trace.NewSymTab()
	hot := sym.Register("hot_loop")
	evs := make([]trace.Event, 0, perChunk)
	for ts := time.Duration(0); len(evs) < perChunk; ts += time.Microsecond {
		evs = append(evs, trace.Event{Kind: trace.KindEnter, FuncID: hot, TS: ts}, trace.Event{Kind: trace.KindExit, FuncID: hot, TS: ts + time.Microsecond})
	}
	payload, _, err := encodeChunk(evs, sym, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := heapAlloc()
	c := New(Options{Shards: 1, Logger: quietLogger()})
	defer c.Close()
	for node := uint32(1); node <= nodes; node++ {
		if a := c.shards[0].frame(node, 0, 0, frameData, payload); a.err != nil {
			t.Fatal(a.err)
		}
	}
	perNode := (heapAlloc() - before) / nodes
	t.Logf("%d B of heap a node", perNode)
	if perNode > 64<<10 {
		t.Errorf("%d B of heap a node after one %d-event chunk each, want under 64 KiB", perNode, perChunk)
	}
	if got := cap(c.shards[0].batch); got < perChunk || got > 2*perChunk {
		t.Errorf("shard decode buffer holds %d events, want one chunk's %d", got, perChunk)
	}
	runtime.KeepAlive(c)
}

// TestCollectorPlateau: 400 chunks from one node through the frame path,
// a hundred to a granule. The spans the collector holds for it stay those
// of the last three chunks, the gauge says so, the marks it holds are one
// per granule it has left, not one per chunk, and the heap at chunk 400
// is what it was at chunk 100 plus what the samples in between cost.
func TestCollectorPlateau(t *testing.T) {
	const perChunk = 4096
	g := tracegen.New(tracegen.Config{Seed: 9, SampleEvery: 20 * time.Millisecond})
	clk := newStoreClock()
	c := New(Options{Shards: 1, Logger: quietLogger(), Now: clk.now})
	defer c.Close()
	var (
		evs                 []trace.Event
		cursor, samples     int
		heap100, samples100 uint64
	)
	for k := 1; k <= 400; k++ {
		evs = g.Fill(evs[:0], perChunk)
		for i := range evs {
			if evs[i].Kind == trace.KindSample {
				samples++
			}
		}
		payload, n, err := encodeChunk(evs, g.Sym(), cursor)
		if err != nil {
			t.Fatal(err)
		}
		cursor = n
		if a := c.shards[0].frame(1, 0, uint64(k-1), frameData, payload); a.err != nil {
			t.Fatal(a.err)
		}
		// Fewer than one span for every two events, open invocations included.
		if got := c.metrics.residentSpans.Value(); got <= 0 || got > 3*perChunk/2 {
			t.Fatalf("after chunk %d: %d resident spans, want those of three chunks at most", k, got)
		}
		if k == 100 {
			heap100, samples100 = heapAlloc(), uint64(samples)
		}
		if k%100 == 0 {
			clk.advance(time.Hour)
		}
		if got, want := c.metrics.granuleMarks.Value(), int64((k-1)/100); got != want || len(c.shards[0].nodes[1].marks) != int(want) {
			t.Fatalf("after chunk %d: %d marks on the gauge, %d on the node, want %d", k, got, len(c.shards[0].nodes[1].marks), want)
		}
	}
	// A sample costs 16 bytes in the series and 8 in the list of every
	// function covering it (4 lanes, 6 deep); slices grow by doubling.
	grown := 2 * (uint64(samples) - samples100) * (16 + 8*4*6)
	if got, limit := heapAlloc(), heap100+heap100/10+grown; got > limit {
		t.Errorf("heap %d B at chunk 400, %d B at chunk 100: more than 10%% and %d samples' %d B apart", got, heap100, uint64(samples)-samples100, grown)
	}
	st := nodeStatus(t, c, 1)
	if st.LateEvents != 0 || st.Events != 400*perChunk {
		t.Errorf("node status %+v, want %d events, none late", st, 400*perChunk)
	}
	if got, want := c.metrics.residentSpans.Value(), int64(c.shards[0].nodes[1].builder.Resident()); got != want {
		t.Errorf("resident-spans gauge %d, the builder holds %d", got, want)
	}
}

// TestLateChunkIsCounted: a chunk stamped far behind the fold boundary is
// counted — in /api/nodes and on the debug counter — and otherwise taken
// in stride: no panic, the node is not poisoned, no function is credited
// more time than the node's trace lasted, and a restart's replay counts
// the same events late.
func TestLateChunkIsCounted(t *testing.T) {
	const perChunk = 4096
	opts := Options{StoreDir: t.TempDir(), Shards: 1, Logger: quietLogger()}
	g := tracegen.New(tracegen.Config{Seed: 5, SampleEvery: 10 * time.Millisecond})
	evs := g.Fill(nil, 8*perChunk)
	// Lane 99 reports, eight chunks into the stream, a call of the node's
	// hottest function and a sample from its very beginning.
	fn0 := evs[0].FuncID
	for _, e := range evs {
		if e.Kind == trace.KindEnter {
			fn0 = e.FuncID
			break
		}
	}
	stale := []trace.Event{
		{Kind: trace.KindEnter, Lane: 99, FuncID: fn0, TS: 1},
		{Kind: trace.KindSample, TS: 2, ValueC: 50},
		{Kind: trace.KindExit, Lane: 99, FuncID: fn0, TS: evs[2*perChunk].TS},
	}
	evs = append(evs, stale...)
	evs = g.Fill(evs, perChunk)

	c1 := New(opts)
	if a := shipChunks(t, c1, 1, g.Sym(), 0, evs[:8*perChunk], perChunk); a.err != nil {
		t.Fatal(a.err)
	}
	if st := nodeStatus(t, c1, 1); st.LateEvents != 0 {
		t.Fatalf("%d late events in an in-order stream", st.LateEvents)
	}
	if a := shipChunks(t, c1, 1, g.Sym(), g.Sym().Len(), evs[8*perChunk:], perChunk); a.err != nil {
		t.Fatalf("a late chunk poisoned the node: %v", a.err)
	}
	check := func(when string, c *Collector) {
		t.Helper()
		st := nodeStatus(t, c, 1)
		if st.LateEvents != uint64(len(stale)) || st.Err != "" {
			t.Errorf("%s: node status %+v, want %d late events and no error", when, st, len(stale))
		}
		if got := c.metrics.lateEvents.Value(); got != uint64(len(stale)) {
			t.Errorf("%s: tempest_collect_late_events_total %d, want %d", when, got, len(stale))
		}
		np, err := c.NodeProfile(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, fp := range np.Functions {
			if fp.TotalTime > np.Duration {
				t.Errorf("%s: %s credited %v of a %v trace", when, fp.Name, fp.TotalTime, np.Duration)
			}
		}
	}
	check("live", c1)
	c1.Close()
	c2 := New(opts)
	defer c2.Close()
	check("after restart", c2)
}

// TestRankingAllocsFlatInHistory: what a ranking, all-time or over a
// window, and a node profile allocate, in allocations and in bytes, does not grow with the events
// behind them — 16 chunks of history against 256, sampled a sixteenth as
// often so that both hold the same samples.
func TestRankingAllocsFlatInHistory(t *testing.T) {
	type cost struct{ allocs, bytes float64 }
	measure := func(fn func()) cost {
		const runs = 20
		allocs := testing.AllocsPerRun(runs, fn)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return cost{allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs}
	}
	history := func(chunks int, sampleEvery time.Duration) (hotspots, window, profile cost) {
		c := New(Options{Shards: 1, Logger: quietLogger()})
		defer c.Close()
		shipFleet(t, c, 2, chunks, sampleEvery)
		hotspots = measure(func() {
			if _, err := c.Hotspots(0, 10); err != nil {
				t.Fatal(err)
			}
		})
		window = measure(func() {
			if _, err := c.WindowHotspots(0, 10, 0, math.MaxInt64); err != nil {
				t.Fatal(err)
			}
		})
		profile = measure(func() {
			if _, err := c.NodeProfile(1); err != nil {
				t.Fatal(err)
			}
		})
		return hotspots, window, profile
	}
	hot16, win16, prof16 := history(16, 10*time.Millisecond)
	hot256, win256, prof256 := history(256, 160*time.Millisecond)
	for _, q := range []struct {
		name        string
		short, long cost
	}{{"Hotspots", hot16, hot256}, {"WindowHotspots", win16, win256}, {"NodeProfile", prof16, prof256}} {
		t.Logf("%s: %.0f allocations and %.0f B after 16 chunks, %.0f and %.0f B after 256", q.name, q.short.allocs, q.short.bytes, q.long.allocs, q.long.bytes)
		if q.long.allocs > 1.25*q.short.allocs || q.long.bytes > 1.25*q.short.bytes {
			t.Errorf("%s costs more than 1.25× as much after sixteen times the events", q.name)
		}
	}
}
