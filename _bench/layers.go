package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tempest/instrument"
	"tempest/internal/collect"
	"tempest/internal/critpath"
	"tempest/internal/parser"
	"tempest/internal/report"
	"tempest/internal/store"
	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// The per-layer half of the benchmark. Everything here runs only in the
// traced run and measures by timing calls into each layer's public
// functions from this file: no span or counter is added to the program.
// Each probe records a span per call (per block of calls, for calls that
// take nanoseconds) and the metrics are read back from the span log, so
// the numbers in the table and the spans in _bench/out agree.

// probeReps is how often a probe repeats a call that takes milliseconds.
const probeReps = 9

// layerProbes runs the probes that belong with one workload's span file.
func layerProbes(ctx *runCtx, workload string, scale float64) {
	switch workload {
	case "live_node":
		probeInstrument(ctx, scale)
		probeLanes(ctx, scale)
	case "fleet_ingest":
		events := max(int(300_000*ctx.seconds*scale), 20*genChunkEvents)
		probeIngestChain(ctx, events)
		probeCollectIngest(ctx, events)
		probeCompactor(ctx)
	}
}

// blockLoop times n calls of fn in blocks of per calls, one span per
// block, and returns nanoseconds per call at the quiet decile of the
// blocks. between, when set, runs after every block, outside its span.
func blockLoop(ctx *runCtx, name string, n, per int, fn func(), between func()) float64 {
	var secs []float64
	for b := 0; b < max(n/per, 8); b++ {
		id := ctx.spans.begin(name, 0, b+1)
		start := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		secs = append(secs, time.Since(start).Seconds())
		ctx.spans.end(id, int64(per))
		if between != nil {
			between()
		}
	}
	return quietCost(secs) / float64(per) * 1e9
}

// probeInstrument is the tight loop over Trace(slot)() in each mode —
// the hook alone, with no function body around it.
func probeInstrument(ctx *runCtx, scale float64) {
	slot := instrument.Register("tempest/_bench/probe", []string{"bench.probe"})[0]
	hook := func() { instrument.Trace(slot)() }
	n := max(int(400_000*ctx.seconds*scale), 20_000)

	instrument.Detach(nil)
	// Blocks of ≈ 0.1 ms: 16384 calls of the cheap paths, 16 of detail.
	ctx.layer.emit("instrument.inert_ns", blockLoop(ctx, "instrument.Trace inert", n, 16384, hook, nil))

	tr, err := trace.NewTracer(trace.Config{Clock: vclock.NewRealClock(), LaneBufferCap: 1 << 16})
	if err != nil {
		ctx.layer.fail(1, "probe tracer: %v", err)
		return
	}
	instrument.Attach(tr)
	defer instrument.Detach(tr)
	defer instrument.Apply(instrument.Directive{Default: instrument.ModeDetail})

	instrument.Apply(instrument.Directive{Default: instrument.ModeDetail})
	// Detail blocks drain the lane between blocks, outside the timed span.
	ctx.layer.emit("instrument.detail_ns", blockLoop(ctx, "instrument.Trace detail", max(n/20, 2_000), 16, hook, func() { tr.Drain() }))
	instrument.Apply(instrument.Directive{Default: instrument.ModeCoarse})
	ctx.layer.emit("instrument.coarse_ns", blockLoop(ctx, "instrument.Trace coarse", n, 1024, hook, nil))
	instrument.Apply(instrument.Directive{Default: instrument.ModeOff})
	ctx.layer.emit("instrument.off_ns", blockLoop(ctx, "instrument.Trace off", n, 16384, hook, nil))
	instrument.FlushCoarse()
}

// probeLanes times the lane primitives under instrument's detail path:
// an Enter/Exit pair, and Tracer.Drain per drained event.
func probeLanes(ctx *runCtx, scale float64) {
	tr, err := trace.NewTracer(trace.Config{Clock: vclock.NewRealClock(), LaneBufferCap: 1 << 16})
	if err != nil {
		ctx.layer.fail(1, "probe tracer: %v", err)
		return
	}
	lane := tr.NewLane()
	fid := tr.RegisterFunc("bench.lane")
	n := max(int(100_000*ctx.seconds*scale), 16_384)
	// Blocks of 1024 pairs (≈ 0.2 ms, 2048 events), drained in between:
	// a sample of Drain is one such drain, per event.
	var drainSecs []float64
	pair := blockLoop(ctx, "trace.Lane.Enter+Exit", n, 1024, func() {
		lane.Enter(fid) //tempest:ignore enterexit
		_ = lane.Exit(fid)
	}, func() {
		id := ctx.spans.begin("trace.Tracer.Drain", 0, 0)
		start := time.Now()
		ev, _ := tr.Drain()
		took := time.Since(start).Seconds()
		ctx.spans.end(id, int64(len(ev)))
		if len(ev) > 0 {
			drainSecs = append(drainSecs, took/float64(len(ev)))
		}
	})
	ctx.layer.emit("trace.lane_pair_ns", pair)
	ctx.layer.emit("trace.drain_ns_per_event", quietCost(drainSecs)*1e9)
}

// chainInput is a generated stream already written in the segmented
// trace format, with each chunk's byte range.
type chainInput struct {
	raw    []byte
	bounds []int // chunk i is raw[bounds[i]:bounds[i+1]]
	events int
}

// writeChainInput generates events and writes them with trace.Writer —
// itself a probe: write cost and bytes per event.
func writeChainInput(ctx *runCtx, log *spanLog, events int) (*chainInput, error) {
	g := newNodeGen(ctx.seed, 900)
	var out bytes.Buffer
	w, err := trace.NewWriter(&out, 900, 0)
	if err != nil {
		return nil, err
	}
	in := &chainInput{bounds: []int{out.Len()}}
	var buf []trace.Event
	for i := 0; in.events < events; i++ {
		buf = g.chunk(buf)
		id := log.begin("trace.Writer.Flush", 0, i+1)
		err := w.Flush(buf, g.sym)
		log.end(id, int64(len(buf)))
		if err != nil {
			return nil, err
		}
		in.events += len(buf)
		in.bounds = append(in.bounds, out.Len())
	}
	in.raw = out.Bytes()
	return in, nil
}

// runChain is the ingest chain composed by the driver itself: for every
// chunk, scan → Disk.Append → Builder.Add → Analyzer.Add under one
// "chunk" parent span, so each stage's time and the chain's self time
// (the parent minus its children) are separated. It also returns how
// long each chunk took, in seconds, whether or not log records spans.
func runChain(log *spanLog, in *chainInput, dir string) (*parser.Builder, *critpath.Analyzer, []float64, error) {
	sc, err := trace.NewScanner(bytes.NewReader(in.raw))
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	defer st.Close()
	b := parser.NewBuilder(sc.NodeID(), sc.Sym(), parser.Options{Unit: parser.Fahrenheit})
	an := critpath.New(critpath.Options{})
	var chunkSecs []float64
	for i := 0; ; i++ {
		start := time.Now()
		chunk := log.begin("chunk", 0, i+1)
		id := log.begin("trace.Scanner.Next", chunk, i+1)
		batch, err := sc.Next()
		log.end(id, int64(len(batch)))
		if err == io.EOF {
			log.end(chunk, 0)
			break
		}
		if err != nil {
			return nil, nil, nil, err
		}
		n := int64(len(batch))
		id = log.begin("store.Disk.Append", chunk, i+1)
		err = st.Append(store.Batch{Node: sc.NodeID(), Seq: uint64(i), WallNano: time.Now().UnixNano(), Payload: in.raw[in.bounds[i]:in.bounds[i+1]]})
		log.end(id, 1)
		if err != nil {
			return nil, nil, nil, err
		}
		id = log.begin("parser.Builder.Add", chunk, i+1)
		err = b.Add(batch)
		log.end(id, n)
		if err != nil {
			return nil, nil, nil, err
		}
		id = log.begin("critpath.Analyzer.Add", chunk, i+1)
		err = an.Add(sc.NodeID(), sc.Sym(), batch)
		log.end(id, n)
		if err != nil {
			return nil, nil, nil, err
		}
		log.end(chunk, n)
		chunkSecs = append(chunkSecs, time.Since(start).Seconds())
	}
	return b, an, chunkSecs, nil
}

// appendCost appends up to n of the input's chunks to a fresh store in
// dir and returns the quiet decile of the Append times in seconds.
func appendCost(in *chainInput, dir string, opts store.Options, n int) (float64, error) {
	st, err := store.Open(dir, opts)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var secs []float64
	for i := 0; i+1 < len(in.bounds) && i < n; i++ {
		start := time.Now()
		err := st.Append(store.Batch{Node: 900, Seq: uint64(i), WallNano: start.UnixNano(), Payload: in.raw[in.bounds[i]:in.bounds[i+1]]})
		if err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return quietCost(secs), nil
}

func heapAlloc() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// probeIngestChain produces the trace codec, store, parser and critpath
// numbers, and the tracing overhead of the span log itself.
func probeIngestChain(ctx *runCtx, events int) {
	L := ctx.layer
	in, err := writeChainInput(ctx, ctx.spans, events)
	if err != nil {
		L.fail(1, "chain input: %v", err)
		return
	}
	kev := float64(in.events) / 1000
	L.emit("trace.write_bytes_per_event", float64(len(in.raw))/float64(in.events))

	// The same chain with a nil span log, before and after the traced
	// pass (the first pass of any kind also pays for cold caches). The
	// traced pass's quiet chunk against the untraced passes' is what
	// recording spans costs.
	dir := filepath.Join(ctx.storeDir, "chain")
	_, _, plain, err := runChain(nil, in, filepath.Join(dir, "plain1"))
	if err != nil {
		L.fail(1, "chain: %v", err)
		return
	}
	heap0 := heapAlloc()
	b, an, traced, err := runChain(ctx.spans, in, filepath.Join(dir, "traced"))
	if err != nil {
		L.fail(1, "chain: %v", err)
		return
	}
	heap1 := heapAlloc()
	_, _, plain2, err := runChain(nil, in, filepath.Join(dir, "plain2"))
	if err != nil {
		L.fail(1, "chain: %v", err)
		return
	}
	untraced := quietCost(append(plain, plain2...))
	L.emit("bench.trace_overhead_frac", (quietCost(traced)-untraced)/untraced)

	sums := ctx.spans.sums()
	L.emit("trace.write_ns_per_event", sums["trace.Writer.Flush"].perOp())
	L.emit("trace.scan_ns_per_event", sums["trace.Scanner.Next"].perOp())
	L.emit("store.append_ns_per_batch", sums["store.Disk.Append"].perOp())
	L.emit("parser.add_ns_per_event", sums["parser.Builder.Add"].perOp())
	L.emit("critpath.add_ns_per_event", sums["critpath.Analyzer.Add"].perOp())
	L.emit("parser.heap_bytes_per_kevent", math.Max(heap1-heap0, 0)/kev)

	// Snapshot and summary at this history length.
	var snapSecs, sumSecs []float64
	var np *parser.NodeProfile
	for i := 0; i < probeReps; i++ {
		id := ctx.spans.begin("parser.Builder.Snapshot", 0, 0)
		start := time.Now()
		np, err = b.Snapshot()
		snapSecs = append(snapSecs, time.Since(start).Seconds())
		ctx.spans.end(id, 1)
		if err != nil {
			L.fail(1, "snapshot: %v", err)
			return
		}
		id = ctx.spans.begin("critpath.Analyzer.Summary", 0, 0)
		start = time.Now()
		_ = an.Summary()
		sumSecs = append(sumSecs, time.Since(start).Seconds())
		ctx.spans.end(id, 1)
	}
	L.emit("parser.snapshot_ms", quietCost(snapSecs)*1e3)
	L.note("parser.snapshot_ms", "at %d events on one node", in.events)
	L.emit("critpath.summary_ms", quietCost(sumSecs)*1e3)
	intervals := 0
	for _, f := range np.Functions {
		intervals += len(f.Intervals)
	}
	L.emit("parser.intervals_per_kevent", float64(intervals)/kev)

	// What the chain store holds, and reading it back.
	stDir := filepath.Join(dir, "traced")
	L.emit("store.bytes_per_event", float64(dirBytes(stDir))/float64(in.events))
	id := ctx.spans.begin("store.Open+Replay", 0, 0)
	start := time.Now()
	st, err := store.Open(stDir, store.Options{})
	if err == nil {
		var sink int
		err = st.Replay(nil, func(b store.Batch) error { sink += len(b.Payload); return nil })
	}
	ctx.spans.end(id, int64(in.events))
	if err != nil {
		L.fail(1, "store replay: %v", err)
		return
	}
	L.emit("store.replay_ns_per_event", float64(time.Since(start).Nanoseconds())/float64(in.events))
	// Replayed segments are all closed, so ReadRange walks the same files.
	batches := 0
	id = ctx.spans.begin("store.Disk.ReadRange", 0, 0)
	start = time.Now()
	err = st.ReadRange(0, math.MaxInt64, nil, func(store.Batch) error { batches++; return nil })
	took := time.Since(start)
	ctx.spans.end(id, int64(batches))
	st.Close()
	if err != nil || batches == 0 {
		L.fail(1, "store ReadRange: %d batches, %v", batches, err)
		return
	}
	L.emit("store.readrange_ns_per_batch", float64(took.Nanoseconds())/float64(batches))

	// fsync: Append with and without it, on the store filesystem and on
	// the checkout's (hardware; informational).
	nosync, err1 := appendCost(in, filepath.Join(dir, "nosync"), store.Options{SyncEvery: 1 << 30}, 512)
	synced, err2 := appendCost(in, filepath.Join(dir, "sync"), store.Options{}, 512)
	diskDir, err3 := os.MkdirTemp(mkBuildDir(), "fsync-")
	if err1 != nil || err2 != nil || err3 != nil {
		L.fail(1, "fsync probe: %v %v %v", err1, err2, err3)
		return
	}
	defer os.RemoveAll(diskDir)
	disk, err := appendCost(in, diskDir, store.Options{}, 48)
	if err != nil {
		L.fail(1, "fsync probe on the checkout filesystem: %v", err)
		return
	}
	L.emit("store.sync_p50_us", math.Max(synced-nosync, 0)*1e6)
	L.emit("store.sync_p50_us_disk", math.Max(disk-nosync, 0)*1e6)
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// probeCollectIngest times Collector.IngestTrace, memory-only and with a
// store. IngestTrace encodes its trace as one chunk from symbol 0, so it
// can be called once per node: the input is one shipper-sized chunk for
// each of many nodes. Every node is therefore new to the collector, and
// the number is per-chunk ingest cost at the start of a node's history.
func probeCollectIngest(ctx *runCtx, events int) {
	L := ctx.layer
	nodes := events / genChunkEvents
	if nodes > 256 {
		nodes = 256
	}
	traces := make([]*trace.Trace, nodes)
	for i := range traces {
		g := newNodeGen(ctx.seed, uint32(1000+i))
		traces[i] = &trace.Trace{NodeID: g.node, Sym: g.sym, Events: g.fill(nil, genChunkEvents)}
	}
	// The first pass only warms the path up (allocator, code, the pooled
	// buffers) so that the two measured passes differ by the store alone.
	for _, v := range []struct{ metric, span, dir string }{
		{"", "collect.IngestTrace (warm-up)", ""},
		{"collect.ingest_mem_ns_per_event", "collect.IngestTrace (memory)", ""},
		{"collect.ingest_ns_per_event", "collect.IngestTrace (store)", filepath.Join(ctx.storeDir, "ingesttrace")},
	} {
		c := collect.New(collectorConfig{storeDir: v.dir}.options())
		for _, tr := range traces {
			id := ctx.spans.begin(v.span, 0, int(tr.NodeID))
			err := c.IngestTrace(tr)
			ctx.spans.end(id, int64(len(tr.Events)))
			if err != nil {
				L.fail(1, "%s: %v", v.span, err)
			}
		}
		c.Close()
		if v.metric != "" {
			L.emit(v.metric, ctx.spans.sums()[v.span].perOp())
		}
	}
	// Computed, not measured: what IngestTrace spends outside the three
	// layers it calls (encode, decode, shard hand-off, bookkeeping).
	m := L.Metrics
	self := m["collect.ingest_ns_per_event"].Value - m["parser.add_ns_per_event"].Value - m["critpath.add_ns_per_event"].Value -
		m["store.append_ns_per_batch"].Value/genChunkEvents
	L.emit("collect.ingest_self_ns_per_event", self)
	L.note("collect.ingest_self_ns_per_event", "computed: ingest − store − parser − critpath")
}

// probeCompactor applies the collector's compactor to the batches the
// traced fleet_ingest run left in its store.
func probeCompactor(ctx *runCtx) {
	L := ctx.layer
	var batches []store.Batch
	shards, _ := filepath.Glob(filepath.Join(ctx.storeDir, "fleet_ingest", "shard-*"))
	for _, dir := range shards {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			L.fail(1, "compactor probe: %v", err)
			return
		}
		err = st.Replay(nil, func(b store.Batch) error {
			b.Payload = append([]byte(nil), b.Payload...)
			batches = append(batches, b)
			return nil
		})
		st.Close()
		if err != nil {
			L.fail(1, "compactor probe: %v", err)
			return
		}
	}
	events := 0
	for range batches {
		events += genChunkEvents
	}
	if events == 0 {
		L.fail(1, "compactor probe: the fleet_ingest store is empty")
		return
	}
	compact := collect.NewCompactor(parser.Fahrenheit, 0, time.Second)
	id := ctx.spans.begin("collect.NewCompactor()", 0, 0)
	start := time.Now()
	blob, err := compact(nil, batches)
	took := time.Since(start)
	ctx.spans.end(id, int64(events))
	if err != nil {
		L.fail(1, "compactor: %v", err)
		return
	}
	L.emit("archive.compact_ns_per_event", float64(took.Nanoseconds())/float64(events))
	L.emit("archive.bytes_per_kevent", float64(len(blob))/(float64(events)/1000))
}

// fleetLayerMetrics reads the shipper and collector numbers of a traced
// fleet_ingest run: spans around Ship, the watcher's ack times, and the
// counters the collector already exports.
func fleetLayerMetrics(ctx *runCtx, col *collectorEnd, senders []*sender, events uint64) {
	L := ctx.layer
	L.emit("shipper.ship_ns_per_event", ctx.spans.sums()["shipper.Ship"].perOp())
	var rtt []float64
	var resends uint64
	for _, s := range senders {
		for i, at := range s.ship.acks() {
			rtt = append(rtt, at.Sub(s.shipAt[i]).Seconds())
		}
		resends += s.ship.Stats().Resends
	}
	L.timing("shipper.ack_rtt_p50_ms", rtt, 1e3)
	L.emit("shipper.resends", float64(resends))
	c, err := col.scrape()
	if err != nil {
		L.fail(1, "%v", err)
		return
	}
	ev := float64(events)
	L.emit("shipper.wire_bytes_per_event", c.values["tempest_collect_bytes_total"]/ev)
	L.emit("collect.decode_ns_per_event", c.dists["tempest_collect_decode_seconds"].Sum/ev*1e9)
	L.emit("collect.fold_ns_per_event", c.dists["tempest_collect_fold_seconds"].Sum/ev*1e9)
	var max, sum, shards float64
	for name, v := range c.values {
		if len(name) > 36 && name[:36] == "tempest_collect_shard_segments_total" {
			shards++
			sum += v
			max = math.Max(max, v)
		}
	}
	if sum > 0 {
		L.emit("collect.shard_skew", max/(sum/shards))
		L.note("collect.shard_skew", "max ÷ mean segments over %g shards, %d nodes", shards, len(senders))
	}
}

// serve runs one request through the collector's handler with no socket
// and returns the quiet-decile latency over probeReps and the body size.
func serve(ctx *runCtx, c *collect.Collector, path string) (ms float64, size int) {
	h := c.Handler()
	var secs []float64
	for i := 0; i < probeReps; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		id := ctx.spans.begin("http.ServeHTTP "+path, 0, 0)
		start := time.Now()
		h.ServeHTTP(rec, req)
		secs = append(secs, time.Since(start).Seconds())
		ctx.spans.end(id, 1)
		if rec.Code != 200 {
			ctx.layer.fail(1, "ServeHTTP %s: status %d", path, rec.Code)
		}
		size = rec.Body.Len()
	}
	return quietCost(secs) * 1e3, size
}

// httpLayerMetrics times the query path of a collector that has just
// taken a fleet_mixed run's data: the handler, and the two functions
// that dominate it.
func httpLayerMetrics(ctx *runCtx, c *collect.Collector, node uint32) {
	L := ctx.layer
	ms, _ := serve(ctx, c, "/api/hotspots?k=10")
	L.emit("http.hotspots_ms", ms)
	ms, _ = serve(ctx, c, fmt.Sprintf("/api/profile/%d", node))
	L.emit("http.profile_ms", ms)
	p := c.Profile()
	var hot, js []float64
	for i := 0; i < probeReps; i++ {
		id := ctx.spans.begin("collect.HotFunctions", 0, 0)
		start := time.Now()
		_, err := collect.HotFunctions(p, 0, 0)
		hot = append(hot, time.Since(start).Seconds())
		ctx.spans.end(id, 1)
		if err != nil {
			L.fail(1, "HotFunctions: %v", err)
		}
		id = ctx.spans.begin("report.WriteJSON", 0, 0)
		start = time.Now()
		err = report.WriteJSON(io.Discard, p)
		js = append(js, time.Since(start).Seconds())
		ctx.spans.end(id, 1)
		if err != nil {
			L.fail(1, "WriteJSON: %v", err)
		}
	}
	L.emit("hotspot.hot_functions_ms", quietCost(hot)*1e3)
	L.emit("report.write_json_ms", quietCost(js)*1e3)
}

// historyLayerMetrics reads the window-cache counters after phases C and
// D, and times the series endpoint with no socket.
func historyLayerMetrics(ctx *runCtx, col *collectorEnd, senders []*sender) {
	L := ctx.layer
	c, err := col.scrape()
	if err != nil {
		L.fail(1, "%v", err)
		return
	}
	L.emit("window.decode_ms", c.dists["tempest_collect_window_decode_seconds"].Avg*1e3)
	L.note("window.decode_ms", "mean of %d cache-miss decodes", c.dists["tempest_collect_window_decode_seconds"].N)
	if q := c.values["tempest_collect_window_queries_total"]; q > 0 {
		L.emit("window.cache_hit_ratio", c.values["tempest_collect_window_cache_hits_total"]/q)
		L.note("window.cache_hit_ratio", "%g hits of %g window queries (series slices and ?window=)", c.values["tempest_collect_window_cache_hits_total"], q)
	}
	if col.inproc != nil {
		ms, size := serve(ctx, col.inproc, fmt.Sprintf("/api/series/%d", senders[0].node))
		L.emit("http.series_ms", ms)
		L.emit("http.series_bytes", float64(size))
	}
}
