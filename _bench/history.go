package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// historySlices are the twentieths of a node's raw span whose ranged
// series each round reads — early, middle and late, because the cost of a
// cold read depends on where in the history its range lies (everything
// before it is scanned for symbols). Each is read historyJitters times a
// round with its start moved by a nanosecond: the window cache keys on the
// exact range, so every one of them is decoded from the raw segments, and
// a range has historyJitters × rounds samples of one cost.
var historySlices = []int64{4, 10, 16}

const historyJitters = 2

// historyStoreWindow is the collector's -store-window: short, so that
// even a small history spans several raw segments.
const historyStoreWindow = 500 * time.Millisecond

// historyQuery uses the store as a reader — replay, ReadRange,
// compaction — where the other workloads only append. Closed loop, one
// query connection, ingest idle while it measures. Set-up loads the
// history, paced so it spans several raw segments; then every step is
// one round of:
//
//	A  kill the collector, restart it on the same store: exec → ready
//	   (the address line, printed once collect.New has replayed)
//	C  /api/series/{node}?from=&to= over historySlices of every node,
//	   each once cold (decoded from raw segments) then twice warm (served
//	   from the window cache)
//	B  /api/hotspots?k=10 over live state, four times after each read of C
//	D  /api/hotspots?window=1h, twice
//	E  start a second collector on a copy of the store with retention
//	   on, so Open compacts every closed segment: exec → ready
//
// A restart is one sample however long it takes, so the only way to more
// samples is more rounds.
type historyQuery struct {
	fleet  // col is replaced at each restart
	cfg    collectorConfig
	events uint64
	closed time.Time // when every segment of the history is closed and older than phase E's retention

	before, beforeAll []byte // /api/hotspots?k=10 and ?k=0 before the first restart

	recoverSecs, compactSecs, hot, win, warm []float64
	cold                                     map[string][]float64 // by node and slice: every range has its own cost
}

func (h *historyQuery) setup(ctx *runCtx, scale float64) error {
	conns := min(ctx.nproc, maxConns)
	chunks := max(int(150_000*ctx.seconds*scale)/genChunkEvents/conns, 24)
	// The load is paced over at least four store windows so the history
	// always spans several raw segments, however small the run.
	loadFor := time.Duration(0.3 * ctx.seconds * scale * float64(time.Second))
	if loadFor < 4*historyStoreWindow {
		loadFor = 4 * historyStoreWindow
	}
	h.cfg = collectorConfig{storeDir: filepath.Join(ctx.storeDir, "history_query"), window: historyStoreWindow}
	if err := h.start(ctx, h.cfg, 301, conns); err != nil {
		return err
	}
	t0 := time.Now()
	runSenders(h.senders, func(s *sender) { s.run(ctx, chunks, t0, loadFor/time.Duration(chunks), 0) })
	h.closed = time.Now().Add(historyStoreWindow + time.Second + 100*time.Millisecond)
	for _, s := range h.senders {
		s.account(ctx.res, "history_query")
		h.events += s.gen.events
	}
	status, body, _, err := get(h.col.http + "/api/hotspots?k=10")
	if err != nil || status != 200 {
		return fmt.Errorf("hotspots before restart: status %d, %v", status, err)
	}
	h.before = body
	_, h.beforeAll, _, _ = get(h.col.http + "/api/hotspots?k=0") // the untruncated ranking, for phase E's check
	return nil
}

// query issues n GETs of one URL and returns latencies and the last body.
func (h *historyQuery) query(ctx *runCtx, name, url string, n int) (secs []float64, body []byte) {
	for i := 0; i < n; i++ {
		id := ctx.spans.begin(name, 0, 0)
		status, b, took, err := get(url)
		ctx.spans.end(id, 1)
		ctx.res.attempt(1)
		if err != nil || status != 200 {
			ctx.res.fail(1, "history_query: GET %s: status %d, %v", url, status, err)
			continue
		}
		secs, body = append(secs, took.Seconds()), b
	}
	return secs, body
}

func (h *historyQuery) step(ctx *runCtx, i int) error {
	res := ctx.res
	// A: crash and recover. Recovery does not change the store.
	h.col.stop()
	restarted, err := ctx.startCollector(h.cfg)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	h.col = restarted
	h.recoverSecs = append(h.recoverSecs, h.col.readyIn.Seconds())
	res.attempt(1)
	status, after, _, err := get(h.col.http + "/api/hotspots?k=10")
	if err != nil || status != 200 || !bytes.Equal(h.before, after) {
		res.fail(1, "history_query: /api/hotspots after restart is not byte-equal to the body before it (status %d, %v)", status, err)
	}

	// B and C: a ranged series per slice, cold then warm, and two
	// rankings over live state after each.
	if h.cold == nil {
		h.cold = map[string][]float64{}
	}
	for _, s := range h.senders {
		from, to, err := coveredSpan(h.col.http, s.node)
		if err != nil {
			res.fail(1, "history_query: %v", err)
			continue
		}
		width := (to - from) / 20
		for _, k := range historySlices {
			for j := int64(0); j < historyJitters; j++ {
				url := fmt.Sprintf("%s/api/series/%d?from=%s&to=%s", h.col.http, s.node, rfc3339(from+k*width+j), rfc3339(from+(k+1)*width))
				c, coldBody := h.query(ctx, "http.GET /api/series cold", url, 1)
				w, warmBody := h.query(ctx, "http.GET /api/series warm", url, 2)
				class := fmt.Sprintf("%d/%d", s.node, k)
				h.cold[class], h.warm = append(h.cold[class], c...), append(h.warm, w...)
				if len(c) == 1 && len(w) == 2 && !bytes.Equal(coldBody, warmBody) {
					res.fail(1, "history_query: warm body of %s differs from its cold body", url)
				}
				b, _ := h.query(ctx, "http.GET /api/hotspots", h.col.http+"/api/hotspots?k=10", 4)
				h.hot = append(h.hot, b...)
			}
		}
	}

	// D: a ranking over a trailing window, rebuilt from the store.
	w, _ := h.query(ctx, "http.GET /api/hotspots?window", h.col.http+"/api/hotspots?k=10&window=1h", 2)
	h.win = append(h.win, w...)

	// E: a second collector on a copy of the store, with retention on;
	// Open compacts every segment closed for longer than the retention.
	// Compaction consumes the raw segments, hence the copy.
	time.Sleep(time.Until(h.closed))
	ecfg := h.cfg
	ecfg.storeDir += ".compact"
	ecfg.retention, ecfg.granule = time.Second, time.Second
	if err := copyTree(h.cfg.storeDir, ecfg.storeDir); err != nil {
		return fmt.Errorf("copying the store: %w", err)
	}
	compacting, err := ctx.startCollector(ecfg)
	if err != nil {
		return fmt.Errorf("compacting restart: %w", err)
	}
	h.compactSecs = append(h.compactSecs, compacting.readyIn.Seconds())
	checkCompacted(res, compacting, h.senders, h.beforeAll)
	compacting.stop()
	if err := os.RemoveAll(ecfg.storeDir); err != nil {
		return fmt.Errorf("removing the store copy: %w", err)
	}
	return nil
}

func (h *historyQuery) finish(ctx *runCtx) error {
	res := ctx.res
	// A restart is one sample: events over its exec → ready time.
	rate := func(metric string, secs []float64, what string) {
		rates := make([]float64, len(secs))
		for i, s := range secs {
			rates[i] = float64(h.events) / s
		}
		res.quiet(metric, rates, 1, fmt.Sprintf("a sample is one restart; %d events %s in %.3fs at the median", h.events, what, median(secs)))
	}
	rate("recover_events_per_s", h.recoverSecs, "replayed")
	rate("compact_events_per_s", h.compactSecs, "compacted")
	res.quiet("hotspots_ms", h.hot, 1e3, "a sample is one request: "+describe(h.hot, 1e3))
	// Every range has its own cost, so each is reduced to its own quiet
	// decile and the metric is the median range.
	var ranges, allCold []float64
	for _, secs := range h.cold {
		ranges = append(ranges, quietCost(secs))
		allCold = append(allCold, secs...)
	}
	res.emitAtRef("range_cold_ms", median(ranges)*1e3)
	res.info["range_cold_ms"] += fmt.Sprintf("; median of %d ranges' p10 over %d cold reads each; all cold reads: %s; warm (cache hit) p50=%.4g ms, n=%d",
		len(ranges), len(allCold)/max(len(ranges), 1), describe(allCold, 1e3), median(h.warm)*1e3, len(h.warm))
	res.quiet("window_hotspots_ms", h.win, 1e3, "a sample is one request: "+describe(h.win, 1e3))
	if ctx.layer != nil {
		ctx.layer.timing("window.warm_hit_ms", h.warm, 1e3)
		historyLayerMetrics(ctx, h.col, h.senders)
	}
	return nil
}

// checkCompacted holds the compacted collector to what compaction must
// preserve exactly. Ranking *order* is not in that set: the compactor
// re-baselines heat inside every archive granule (hotspot scores are
// measured against the coolest sample of the window they are computed
// over) and drops a function from granules where it is insignificant, so
// scores shift by tens of percent and neighbours swap — a finding the
// README records. What must hold: no event is lost (raw + archived equals
// sent, per node), and the compacted ranking is non-empty and names only
// functions the uncompacted ranking knew.
func checkCompacted(res *result, col *collectorEnd, senders []*sender, beforeAll []byte) {
	res.attempt(1)
	status, body, _, err := get(col.http + "/api/nodes")
	var nodes []struct {
		Node     uint32 `json:"node"`
		Events   uint64 `json:"events"`
		Archived uint64 `json:"archived_events"`
	}
	if err != nil || status != 200 || json.Unmarshal(body, &nodes) != nil {
		res.fail(1, "history_query: GET /api/nodes after the compacting restart: status %d, %v", status, err)
		return
	}
	held := map[uint32]uint64{}
	for _, n := range nodes {
		held[n.Node] = n.Events + n.Archived
	}
	for _, s := range senders {
		if held[s.node] != s.gen.events {
			res.fail(1, "history_query: node %d holds %d raw+archived events after compaction, %d were sent", s.node, held[s.node], s.gen.events)
		}
	}
	status, compacted, _, err := get(col.http + "/api/hotspots?k=10")
	_, known, berr := hotspotsOrder(beforeAll)
	_, top, cerr := hotspotsOrder(compacted)
	if err != nil || status != 200 || berr != nil || cerr != nil {
		res.fail(1, "history_query: GET /api/hotspots after the compacting restart: status %d, %v", status, err)
		return
	}
	if len(top) == 0 && len(known) > 0 {
		res.fail(1, "history_query: the ranking is empty after the compacting restart")
	}
	names := map[string]bool{}
	for _, n := range known {
		names[n] = true
	}
	for _, n := range top {
		if !names[n] {
			res.fail(1, "history_query: %s is ranked after compaction but was not ranked before it", n)
		}
	}
}

// coveredSpan reads /api/windows/{node} and returns the wall-clock span
// the node's raw history covers, in nanoseconds.
func coveredSpan(base string, node uint32) (from, to int64, err error) {
	status, body, _, err := get(fmt.Sprintf("%s/api/windows/%d", base, node))
	if err != nil || status != 200 {
		return 0, 0, fmt.Errorf("GET /api/windows/%d: status %d, %v", node, status, err)
	}
	var w struct {
		Windows []struct {
			Kind string    `json:"kind"`
			From time.Time `json:"from"`
			To   time.Time `json:"to"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(body, &w); err != nil {
		return 0, 0, err
	}
	for _, win := range w.Windows {
		if win.Kind != "raw" {
			continue
		}
		if f := win.From.UnixNano(); from == 0 || f < from {
			from = f
		}
		if t := win.To.UnixNano(); t > to {
			to = t
		}
	}
	if to <= from {
		return 0, 0, fmt.Errorf("/api/windows/%d lists no raw history", node)
	}
	return from, to, nil
}

// copyTree copies a store directory (shard directories of regular files).
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if fi.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
}

func rfc3339(nanos int64) string {
	return time.Unix(0, nanos).UTC().Format(time.RFC3339Nano)
}
