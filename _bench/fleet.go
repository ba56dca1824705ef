package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"tempest/internal/collect"
	"tempest/internal/introspect"
	"tempest/internal/parser"
	"tempest/internal/trace"
)

// fleetRef is the reference answer for a fleet run: what the collector
// must report for the streams the driver generated.
type fleetRef struct {
	events    map[uint32]uint64 // per node
	functions []string          // "/api/hotspots?k=20" functions[], as "node/name"
	merged    []string          // and merged[], by name
}

const oracleK = 20

// maxInFlight bounds a connection's unacknowledged chunks in the open
// loop, under the Shipper's default queue of 256. At one chunk every
// 8 ms it is reached only after the collector has stood still for a
// second.
const maxInFlight = 128

// maxConns bounds the shipper connections of a fleet workload: one per
// core, but a machine with many cores does not get a larger workload.
const maxConns = 4

// maxGenLateMS is how late the open-loop generator may run at the p90 of
// a window, in milliseconds, before the window stops measuring the
// collector.
const maxGenLateMS = 10

// fleetReference regenerates every node's stream from the seed and folds
// it in-process through parser.Builder — the implementation parser.ParseAll
// wraps, fed chunk by chunk so the reference never holds a whole stream —
// then ranks it with the same collect.HotFunctions/MergeHotFunctions the
// offline tools use.
func fleetReference(seed int64, chunks map[uint32]int) (*fleetRef, error) {
	nodes := sortedNodes(chunks)
	profiles := make([]*parser.NodeProfile, len(nodes))
	events := make([]uint64, len(nodes))
	errs := make([]error, len(nodes))
	// One goroutine per node: a fleet run has at most nproc of them, and
	// nothing is being measured while the reference is computed.
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node uint32) {
			defer wg.Done()
			g := newNodeGen(seed, node)
			b := parser.NewBuilder(node, g.sym, parser.Options{Unit: parser.Fahrenheit})
			var buf []trace.Event
			for k := 0; k < chunks[node]; k++ {
				buf = g.chunk(buf)
				if err := b.Add(buf); err != nil {
					errs[i] = fmt.Errorf("reference builder, node %d: %w", node, err)
					return
				}
			}
			profiles[i], errs[i] = b.Finish()
			events[i] = g.events
		}(i, node)
	}
	wg.Wait()
	ref := &fleetRef{events: map[uint32]uint64{}}
	p := &parser.Profile{Unit: parser.Fahrenheit}
	for i, node := range nodes {
		if errs[i] != nil {
			return nil, errs[i]
		}
		ref.events[node] = events[i]
		p.Nodes = append(p.Nodes, *profiles[i])
	}
	full, err := collect.HotFunctions(p, 0, 0)
	if err != nil {
		return nil, err
	}
	for _, m := range collect.MergeHotFunctions(full, oracleK) {
		ref.merged = append(ref.merged, m.Name)
	}
	if len(full) > oracleK {
		full = full[:oracleK]
	}
	for _, f := range full {
		ref.functions = append(ref.functions, fmt.Sprintf("%d/%s", f.Node, f.Name))
	}
	return ref, nil
}

func sortedNodes(m map[uint32]int) []uint32 {
	var out []uint32
	for n := range m {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// hotspotsOrder reads a /api/hotspots body into the two orders the
// oracle compares.
func hotspotsOrder(body []byte) (functions, merged []string, err error) {
	var h struct {
		Functions []struct {
			Node uint32 `json:"node"`
			Name string `json:"name"`
		} `json:"functions"`
		Merged []struct {
			Name string `json:"name"`
		} `json:"merged"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, nil, err
	}
	for _, f := range h.Functions {
		functions = append(functions, fmt.Sprintf("%d/%s", f.Node, f.Name))
	}
	for _, m := range h.Merged {
		merged = append(merged, m.Name)
	}
	return functions, merged, nil
}

// checkFleet holds the collector's answers against the reference: event
// totals per node from /api/nodes, ranking order from /api/hotspots.
func checkFleet(res *result, workload string, col *collectorEnd, ref *fleetRef) {
	status, body, _, err := get(col.http + "/api/nodes")
	if err != nil || status != 200 {
		res.fail(1, "%s: GET /api/nodes: status %d, %v", workload, status, err)
		return
	}
	var nodes []struct {
		Node   uint32 `json:"node"`
		Events uint64 `json:"events"`
		Err    string `json:"error"`
	}
	if err := json.Unmarshal(body, &nodes); err != nil {
		res.fail(1, "%s: /api/nodes: %v", workload, err)
		return
	}
	seen := map[uint32]bool{}
	for _, n := range nodes {
		seen[n.Node] = true
		if want := ref.events[n.Node]; n.Events != want {
			lost := int64(want) - int64(n.Events)
			if lost < 1 {
				lost = 1
			}
			res.fail(lost, "%s: node %d holds %d events, %d were sent (%s)", workload, n.Node, n.Events, want, n.Err)
		}
	}
	for node, want := range ref.events {
		if !seen[node] {
			res.fail(int64(want), "%s: node %d missing from /api/nodes", workload, node)
		}
	}
	status, body, _, err = get(fmt.Sprintf("%s/api/hotspots?k=%d", col.http, oracleK))
	if err != nil || status != 200 {
		res.fail(1, "%s: GET /api/hotspots: status %d, %v", workload, status, err)
		return
	}
	functions, merged, err := hotspotsOrder(body)
	if err != nil {
		res.fail(1, "%s: /api/hotspots: %v", workload, err)
		return
	}
	if len(ref.merged) == 0 {
		res.fail(1, "%s: reference ranking is empty; the run is too short to check", workload)
	}
	if !slices.Equal(functions, ref.functions) {
		res.fail(1, "%s: /api/hotspots functions order differs from the in-process reference", workload)
	}
	if !slices.Equal(merged, ref.merged) {
		res.fail(1, "%s: /api/hotspots merged order differs from the in-process reference", workload)
	}
}

// sender is one shipper connection and the goroutine that feeds it: it
// generates its node's next chunk and ships it, so connections and
// generator goroutines together never exceed the connection count.
type sender struct {
	node uint32
	gen  *nodeGen
	ship *watchedShipper
	sent int // chunks shipped so far

	shipAt  []time.Time // when Ship was called for chunk i
	late    []float64   // open loop: seconds Ship ran after its due time
	genTime time.Duration
}

func newSender(ctx *runCtx, col *collectorEnd, node uint32) *sender {
	return &sender{
		node: node, gen: newNodeGen(ctx.seed, node),
		// Its own registry: the shipper's metric names are per process.
		ship: newWatchedShipper(col.ingest, node, introspect.New()),
	}
}

// run ships the node's next n chunks and waits for their acks. period 0
// is the closed loop (at most window unacknowledged chunks in flight); a
// positive period is the open loop: the k-th of these chunks is due at
// t0 + k·period whatever the collector is doing.
func (s *sender) run(ctx *runCtx, n int, t0 time.Time, period time.Duration, window int) {
	var buf []trace.Event
	for k := 0; k < n; k++ {
		g0 := time.Now()
		buf = s.gen.chunk(buf)
		s.genTime += time.Since(g0)
		if period > 0 {
			due := t0.Add(time.Duration(k) * period)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			s.late = append(s.late, time.Since(due).Seconds())
			// The Shipper drops what its queue cannot hold. A host that
			// stalls the collector (or this process, which then ships its
			// backlog at once) must show as lag, not as lost events: the
			// open loop waits once maxInFlight chunks are unacknowledged.
			s.ship.waitWindow(uint64(s.sent), maxInFlight)
		} else {
			s.ship.waitWindow(uint64(s.sent), window)
		}
		s.shipAt = append(s.shipAt, time.Now())
		id := ctx.spans.begin("shipper.Ship", 0, s.sent+1)
		// A refused chunk is counted by the Shipper; account reads it there.
		_ = s.ship.Ship(buf, s.gen.sym)
		ctx.spans.end(id, int64(len(buf)))
		s.sent++
	}
	s.ship.waitAcked(uint64(s.sent), 120*time.Second)
}

// account closes the shipper and books what was lost.
func (s *sender) account(res *result, workload string) {
	err := s.ship.Close()
	st := s.ship.Stats()
	res.attempt(int64(s.gen.events))
	res.fail(int64(st.DroppedEvents), "%s: node %d shipper dropped %d events", workload, s.node, st.DroppedEvents)
	if err != nil && st.DroppedEvents == 0 {
		res.fail(1, "%s: node %d shipper close: %v", workload, s.node, err)
	}
	if int(st.AckedSegments) < s.sent {
		res.fail(int64(s.sent)-int64(st.AckedSegments), "%s: node %d: %d of %d chunks acknowledged", workload, s.node, st.AckedSegments, s.sent)
	}
}

// runSenders runs fn for every sender on its own goroutine and waits.
func runSenders(senders []*sender, fn func(*sender)) {
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	wg.Wait()
}

// fleet is what the three collector-side workloads share: one collector
// and the senders shipping to it.
type fleet struct {
	col     *collectorEnd
	senders []*sender
}

// start starts the collector and one sender per connection; node ids
// count up from firstNode.
func (f *fleet) start(ctx *runCtx, cfg collectorConfig, firstNode uint32, conns int) error {
	col, err := ctx.startCollector(cfg)
	if err != nil {
		return err
	}
	f.col = col
	for i := 0; i < conns; i++ {
		f.senders = append(f.senders, newSender(ctx, col, firstNode+uint32(i)))
	}
	return nil
}

func (f *fleet) stop() {
	for _, s := range f.senders {
		s.ship.Close()
	}
	if f.col != nil {
		f.col.stop()
	}
}

// checkSenders closes every shipper, books what was lost and holds the
// collector's answers against the in-process reference.
func checkSenders(ctx *runCtx, workload string, col *collectorEnd, senders []*sender) error {
	want := map[uint32]int{}
	for _, s := range senders {
		s.account(ctx.res, workload)
		want[s.node] = s.sent
	}
	ref, err := fleetReference(ctx.seed, want)
	if err != nil {
		return err
	}
	checkFleet(ctx.res, workload, col, ref)
	return nil
}

// fleetBursts is how many of a run's steps a fleet workload measures in.
// A collector that has sat idle for seconds needs a few tenths of a
// second to warm its caches and fill its pipeline again, so the fleet
// workloads trade steps for longer ones: fleet_ingest's bursts are spread
// evenly over the run's steps and fleet_mixed takes the step after each.
const fleetBursts = 4

// burstStep reports whether step i is one of the fleetBursts steps that
// start at offset: ⌊k·runSteps/fleetBursts⌋ + offset.
func burstStep(i, offset int) bool {
	for k := 0; k < fleetBursts; k++ {
		if i == k*runSteps/fleetBursts+offset {
			return true
		}
	}
	return false
}

const (
	// ingestSliceChunks is how many acknowledged chunks make one sample
	// of the ingest rate: long enough (≈ 50 ms) to average over the
	// bursts acks arrive in, short enough that a step has several.
	ingestSliceChunks = 64
	// cpuSampleEvery is how often the child's CPU time is read while it
	// ingests; two readings make one sample of CPU per event.
	cpuSampleEvery = 50 * time.Millisecond
)

// fleetIngest is the sustained write path: nproc closed-loop shipper
// connections, one node each, at most 32 unacknowledged chunks in flight
// per connection, into a durable collector. Each burst ships a quarter
// of the events; the connections stay open in between.
type fleetIngest struct {
	fleet
	chunks int // per connection and burst

	rates       []float64 // events/s, one per slice of ingestSliceChunks acks
	cpuPerEvent []float64 // seconds, one per cpuSampleEvery
	busy        time.Duration
}

func (f *fleetIngest) setup(ctx *runCtx, scale float64) error {
	conns := min(ctx.nproc, maxConns)
	f.chunks = max(int(2_000_000*ctx.seconds*scale)/genChunkEvents/conns/fleetBursts, ingestSliceChunks)
	return f.start(ctx, collectorConfig{storeDir: filepath.Join(ctx.storeDir, "fleet_ingest")}, 101, conns)
}

func (f *fleetIngest) step(ctx *runCtx, i int) error {
	if !burstStep(i, 0) {
		return nil
	}
	before := f.senders[0].sent
	t0 := time.Now()
	// While the senders run, read the child's CPU time and the chunks
	// acknowledged so far every cpuSampleEvery.
	sendersDone := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		if f.col.child == nil {
			return
		}
		tick := time.NewTicker(cpuSampleEvery)
		defer tick.Stop()
		acked := func() (n uint64) {
			for _, s := range f.senders {
				n += s.ship.ackedCount()
			}
			return n
		}
		cpu0, acked0 := f.col.child.cpuSeconds(), acked()
		for {
			select {
			case <-sendersDone:
				return
			case <-tick.C:
			}
			cpu1, acked1 := f.col.child.cpuSeconds(), acked()
			if acked1 > acked0 {
				f.cpuPerEvent = append(f.cpuPerEvent, (cpu1-cpu0)/float64((acked1-acked0)*genChunkEvents))
			}
			cpu0, acked0 = cpu1, acked1
		}
	}()
	runSenders(f.senders, func(s *sender) { s.run(ctx, f.chunks, t0, 0, 32) })
	close(sendersDone)
	<-samplerDone

	// This step's acks of every connection, in time order, cut into
	// slices of ingestSliceChunks: a sample is one slice's events over
	// its duration. The first slices of a burst include filling the
	// pipeline; they read low and the upper decile never picks them.
	var acks []time.Time
	for _, s := range f.senders {
		acks = append(acks, s.ship.acks()[before:]...)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].Before(acks[j]) })
	prev := t0
	for k := ingestSliceChunks; k <= len(acks); k += ingestSliceChunks {
		at := acks[k-1]
		// Acks that arrive in one read share a time stamp; a slice that
		// ends on the stamp the last one ended on has no duration.
		if d := at.Sub(prev).Seconds(); d > 0 {
			f.rates = append(f.rates, float64(ingestSliceChunks*genChunkEvents)/d)
		}
		prev = at
	}
	if len(acks) > 0 {
		f.busy += acks[len(acks)-1].Sub(t0)
	}
	return nil
}

func (f *fleetIngest) finish(ctx *runCtx) error {
	res := ctx.res
	var events uint64
	for _, s := range f.senders {
		events += s.gen.events
	}
	if len(f.rates) == 0 {
		return fmt.Errorf("too few chunks acknowledged to measure")
	}
	// Throughput is printed for information and reported per layer (traced
	// run): with more runnable threads than cores it measures the host's
	// scheduler as much as the collector, and did not repeat (README).
	rate := fmt.Sprintf("throughput p90 of %d slices of %d chunks %.4g/s; all steps: %d events over %d connections in %.2fs = %.4g/s",
		len(f.rates), ingestSliceChunks, quantile(f.rates, 0.9), events, len(f.senders), f.busy.Seconds(), float64(events)/f.busy.Seconds())
	if f.col.child != nil {
		res.quiet("collector_cpu_us_per_kevent", f.cpuPerEvent, 1e9, fmt.Sprintf("a sample is %v of the child's CPU time over the events acknowledged in it; %s", cpuSampleEvery, rate))
		res.emit("collector_peak_rss_mb", f.col.child.peakRSSMB())
		res.note("collector_peak_rss_mb", "VmHWM after %d events", events)
	}
	if ctx.layer != nil {
		ctx.layer.emit("collect.ingest_events_per_s", quantile(f.rates, 0.9))
		ctx.layer.note("collect.ingest_events_per_s", "%s", rate)
	}
	if err := checkSenders(ctx, "fleet_ingest", f.col, f.senders); err != nil {
		return err
	}
	if ctx.layer != nil {
		fleetLayerMetrics(ctx, f.col, f.senders, events)
	}
	return nil
}

const (
	// mixedPeriod is the open loop's schedule: one 4096-event chunk per
	// connection every 8.192 ms is 500 k events/s.
	mixedPeriod = 8192 * time.Microsecond
	// mixedWindow is the window fleet_mixed's lags are grouped by: 24
	// chunks' lags make one median.
	mixedWindow = 200 * time.Millisecond
	// mixedThink is the query client's pause between requests.
	mixedThink = 15 * time.Millisecond
)

// fleetMixed is reads beside writes: open-loop shippers at a fixed rate
// well under capacity, timed from each chunk's due time, while one
// closed-loop client queries the API. An ack leaves the collector only
// after the chunk is persisted and folded, so due→ack is how long an
// event takes to become queryable. A burst is a quarter of the open
// loop's chunks with the query client beside it; both rest in between.
type fleetMixed struct {
	fleet
	chunks int // per connection and burst

	lag                 [][]float64 // seconds, grouped by window
	lateLag             [][]float64 // the same for windows the generator ran late in
	hotspots            []float64   // seconds, scaled to the final history
	late                []float64   // seconds each chunk was shipped after its due time
	queries, badQueries int64
}

func (f *fleetMixed) setup(ctx *runCtx, scale float64) error {
	conns := min(max(ctx.nproc-1, 1), maxConns)
	f.chunks = max(int(100*ctx.seconds*scale)/fleetBursts, 2*int(mixedWindow/mixedPeriod))
	if err := f.start(ctx, collectorConfig{storeDir: filepath.Join(ctx.storeDir, "fleet_mixed")}, 201, conns); err != nil {
		return err
	}
	// The history the measured part starts from: as much as it will add,
	// loaded closed-loop. A ranking costs time in proportion to the
	// history it ranks; starting from nothing, the first rankings would
	// cost a tenth of the last and no window would be like another.
	runSenders(f.senders, func(s *sender) { s.run(ctx, f.chunks*fleetBursts, time.Time{}, 0, 32) })
	return nil
}

// finalChunks is how many chunks the collector holds when the run ends.
// A ranking costs time in proportion to the history it ranks (measured:
// about 2 ms plus 2.2 ms per million events), and even with the preload
// that history doubles while the run measures. Every ranking's
// latency is therefore scaled to this final history before they are
// compared; unscaled, the quiet decile would simply be the run's first
// requests, whatever the host was doing.
func (f *fleetMixed) finalChunks() int {
	return len(f.senders) * 2 * f.chunks * fleetBursts
}

func (f *fleetMixed) step(ctx *runCtx, i int) error {
	if !burstStep(i, 1) {
		return nil
	}
	before := f.senders[0].sent
	t0 := time.Now().Add(20 * time.Millisecond)
	// The query client: one connection, closed loop, mixedThink between
	// requests.
	stopQueries := make(chan struct{})
	queriesDone := make(chan struct{})
	go func() {
		defer close(queriesDone)
		// Every other request is the ranking, the one whose latency is
		// reported: a window's median needs the samples.
		const hotspots = "/api/hotspots?k=10"
		paths := []string{hotspots, fmt.Sprintf("/api/profile/%d", f.senders[0].node), hotspots, "/api/nodes"}
		for n := 0; ; n++ {
			select {
			case <-stopQueries:
				return
			case <-time.After(mixedThink):
			}
			path := paths[n%len(paths)]
			id := ctx.spans.begin("http.GET "+path, 0, 0)
			status, _, took, err := get(f.col.http + path)
			ctx.spans.end(id, 1)
			f.queries++
			if err != nil || status != 200 {
				f.badQueries++
			} else if path == hotspots {
				// Scaled to the history the run ends with: see finalChunks.
				var held uint64
				for _, s := range f.senders {
					held += s.ship.ackedCount()
				}
				f.hotspots = append(f.hotspots, took.Seconds()*float64(f.finalChunks())/float64(held))
			}
		}
	}()
	runSenders(f.senders, func(s *sender) { s.run(ctx, f.chunks, t0, mixedPeriod, 0) })
	close(stopQueries)
	<-queriesDone

	// Lag is timed from the due time, so a generator that ran late shows
	// up as lag the collector did not cause: a window in which it did
	// measures the generator, and is set aside.
	var lag, late []float64
	var at []time.Duration
	for _, s := range f.senders {
		for k, acked := range s.ship.acks()[before:] {
			due := time.Duration(k) * mixedPeriod
			lag = append(lag, acked.Sub(t0.Add(due)).Seconds())
			at = append(at, due)
		}
		late = append(late, s.late[len(s.late)-f.chunks:]...)
	}
	f.late = append(f.late, late...)
	lateBy := windowsOf(at, late, mixedWindow)
	for j, w := range windowsOf(at, lag, mixedWindow) {
		if quantile(lateBy[j], 0.9)*1e3 > maxGenLateMS {
			f.lateLag = append(f.lateLag, w)
			continue
		}
		f.lag = append(f.lag, w)
	}
	return nil
}

func (f *fleetMixed) finish(ctx *runCtx) error {
	res := ctx.res
	// The generator ran late in most windows: the host stalled the driver
	// itself for much of the run. No operation failed, so the run is not
	// incorrect; but what is left says little about the collector, so the
	// run says so and reads the lag off every window it has.
	lateP90, lateP99 := quantile(f.late, 0.90)*1e3, quantile(f.late, 0.99)*1e3
	windows, dropped := f.lag, len(f.lateLag)
	if dropped > len(f.lag) {
		fmt.Printf("# TIMING INVALID: fleet_mixed: the generator ran over %d ms late in %d of %d windows (p90 %.1f ms); ack_lag_p50_ms includes the generator's lateness\n",
			maxGenLateMS, dropped, dropped+len(f.lag), lateP90)
		windows, dropped = slices.Concat(f.lag, f.lateLag), 0
	}
	// Each window is reduced to its median, so the metric is the median
	// lag of a quiet window, with the query client at work in it.
	var windowLag, allLag []float64
	for _, w := range windows {
		windowLag = append(windowLag, median(w))
		allLag = append(allLag, w...)
	}
	res.quiet("ack_lag_p50_ms", windowLag, 1e3, fmt.Sprintf("a sample is one window's median; all chunks: %s; generator late p90=%.3g p99=%.3g ms, %d windows set aside for it",
		describe(allLag, 1e3), lateP90, lateP99, dropped))
	res.attempt(f.queries)
	res.fail(f.badQueries, "fleet_mixed: %d of %d queries failed", f.badQueries, f.queries)
	if err := checkSenders(ctx, "fleet_mixed", f.col, f.senders); err != nil {
		return err
	}

	if ctx.layer != nil {
		var genNS, events float64
		for _, s := range f.senders {
			genNS += float64(s.genTime.Nanoseconds())
			events += float64(s.gen.events)
		}
		ctx.layer.emit("bench.gen_ns_per_event", genNS/events)
		ctx.layer.emit("bench.gen_late_p99_ms", lateP99)
		ctx.layer.emit("collect.ack_lag_p95_ms", quantile(allLag, 0.95)*1e3)
		ctx.layer.note("collect.ack_lag_p95_ms", "n=%d max=%.4g", len(allLag), quantile(allLag, 1)*1e3)
		ctx.layer.emit("collect.query_under_ingest_ms", quietCost(f.hotspots)*1e3)
		ctx.layer.note("collect.query_under_ingest_ms", "a sample is one /api/hotspots request while ingest runs, scaled to the final history: %s", describe(f.hotspots, 1e3))
		if f.col.inproc != nil {
			httpLayerMetrics(ctx, f.col.inproc, f.senders[0].node)
		}
	}
	return nil
}
