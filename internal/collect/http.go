package collect

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"tempest/internal/critpath"
	"tempest/internal/hotspot"
	"tempest/internal/parser"
	"tempest/internal/report"
)

// countingResponseWriter tracks whether (and how much of) a streaming
// response body has been written, so handler error paths can tell "no
// byte sent yet — a clean 500 is still possible" from "mid-stream — the
// only honest move is aborting the connection".
type countingResponseWriter struct {
	http.ResponseWriter
	n int64
}

func (cw *countingResponseWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.n += int64(n)
	return n, err
}

// Handler returns the collector's HTTP query API:
//
//	GET /healthz              liveness probe
//	GET /metrics              Prometheus text-format self-observability
//	GET /api/nodes            per-node ingest status (JSON array)
//	GET /api/profile/{node}   one node's live profile (JSON; ?format=text
//	                          for the paper's report layout)
//	GET /api/hotspots         fleet hot-spot rankings (?k= top-K,
//	                          ?sensor= sensor index, default 0;
//	                          ?window=30m ranks the trailing window, in
//	                          whole granules, instead of all time)
//	GET /api/series/{node}    one node's sample series as streaming CSV;
//	                          ?from=&to= (RFC 3339 or unix seconds,
//	                          half-open) rebuilds the series over that
//	                          range from the durable store
//	GET /api/windows/{node}   the stored windows a node's history can be
//	                          queried at (raw segments vs folded archives)
//	GET /api/critpath/{node}  one node's serialization/wait analysis
//	                          (JSON; ?format=text for the report layout)
//	GET /api/timeline/{node}  one node's per-lane busy/wait timeline
//	                          (JSON; ?format=text for a gantt, ?width=
//	                          columns, at most 4096)
//	GET /api/policy           adaptive-sampling policy state per node
//	                          (issued revisions, detail sets, budgets)
//
// Every response is computed from a live snapshot: queries never block
// ingest beyond one pass under each shard's lock.
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Still a liveness 200 when degraded — the process serves — but
		// the body tells probes that durability is gone.
		if n := c.DegradedStoreShards(); n > 0 {
			fmt.Fprintf(w, "degraded\nstore: %d shard(s) ingesting memory-only (acked data will not survive a crash)\n", n)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.WriteMetrics(w)
	})
	mux.HandleFunc("GET /api/nodes", func(w http.ResponseWriter, r *http.Request) {
		c.writeJSON(w, "/api/nodes", c.Nodes())
	})
	mux.HandleFunc("GET /api/profile/{node}", func(w http.ResponseWriter, r *http.Request) {
		np, ok := c.nodeParam(w, r)
		if !ok {
			return
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			report.WriteNode(w, np, report.Options{Labels: true})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		report.WriteJSON(w, &parser.Profile{Unit: c.opts.Unit, Nodes: []parser.NodeProfile{*np}})
	})
	mux.HandleFunc("GET /api/series/{node}", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		fromS, toS := q.Get("from"), q.Get("to")
		if (fromS == "") != (toS == "") {
			http.Error(w, "bad range: from and to must be given together", http.StatusBadRequest)
			return
		}
		if fromS != "" {
			// Historical path: rebuild the series over [from, to) from the
			// durable store instead of snapshotting the live builder.
			id, err := strconv.ParseUint(r.PathValue("node"), 10, 32)
			if err != nil {
				http.Error(w, "bad node id", http.StatusBadRequest)
				return
			}
			from, err := parseTimeParam(fromS)
			if err != nil {
				http.Error(w, "bad from parameter", http.StatusBadRequest)
				return
			}
			to, err := parseTimeParam(toS)
			if err != nil {
				http.Error(w, "bad to parameter", http.StatusBadRequest)
				return
			}
			if from > to {
				http.Error(w, "bad range: from after to", http.StatusBadRequest)
				return
			}
			np, archEvents, archived, err := c.WindowSeries(uint32(id), from, to)
			if err != nil {
				if errors.Is(err, ErrHistoryUnavailable) {
					http.Error(w, err.Error(), http.StatusServiceUnavailable)
					return
				}
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			comments := []string{fmt.Sprintf("window: [%s, %s)",
				time.Unix(0, from).UTC().Format(time.RFC3339Nano),
				time.Unix(0, to).UTC().Format(time.RFC3339Nano))}
			if archived {
				comments = append(comments, archivedMarker(archEvents))
			}
			var nps []*parser.NodeProfile
			if np != nil {
				nps = append(nps, np)
			}
			c.streamSeries(w, uint32(id), nps, comments)
			return
		}
		np, ok := c.nodeParam(w, r)
		if !ok {
			return
		}
		// The live series only covers raw history: events retention folded
		// into archives are gone from the builder, so the series would
		// silently shrink. Say so in-band instead.
		var comments []string
		if n := c.nodeArchivedEvents(np.NodeID); n > 0 {
			comments = append(comments, archivedMarker(n))
		}
		c.streamSeries(w, np.NodeID, []*parser.NodeProfile{np}, comments)
	})
	mux.HandleFunc("GET /api/windows/{node}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("node"), 10, 32)
		if err != nil {
			http.Error(w, "bad node id", http.StatusBadRequest)
			return
		}
		wr, err := c.NodeWindows(uint32(id))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		c.writeJSON(w, "/api/windows", wr)
	})
	mux.HandleFunc("GET /api/critpath/{node}", func(w http.ResponseWriter, r *http.Request) {
		sum, _, _, ok := c.critParam(w, r)
		if !ok {
			return
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := report.WriteCritPath(w, sum, report.Options{}); err != nil {
				c.metrics.streamErrors.Add(1)
			}
			return
		}
		c.writeJSON(w, "/api/critpath", sum)
	})
	mux.HandleFunc("GET /api/timeline/{node}", func(w http.ResponseWriter, r *http.Request) {
		_, tracks, dur, ok := c.critParam(w, r)
		if !ok {
			return
		}
		width, err := intParam(r.URL.Query().Get("width"), 0)
		if err != nil || width < 0 || width > maxTimelineWidth {
			http.Error(w, "bad width parameter", http.StatusBadRequest)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := report.WriteTimeline(w, tracks, dur, width); err != nil {
				c.metrics.streamErrors.Add(1)
			}
			return
		}
		c.writeJSON(w, "/api/timeline", report.BuildTimelineJSON(tracks, dur))
	})
	mux.HandleFunc("GET /api/hotspots", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		k, err := intParam(q.Get("k"), 10)
		if err != nil || k < 0 {
			http.Error(w, "bad k parameter", http.StatusBadRequest)
			return
		}
		sensor, err := intParam(q.Get("sensor"), 0)
		if err != nil || sensor < 0 {
			http.Error(w, "bad sensor parameter", http.StatusBadRequest)
			return
		}
		if winS := q.Get("window"); winS != "" {
			d, err := time.ParseDuration(winS)
			if err != nil || d <= 0 {
				http.Error(w, "bad window parameter", http.StatusBadRequest)
				return
			}
			// [now-window, now]: commit clocks never lead the collector's
			// clock, so this is everything committed in the trailing window,
			// commits at this instant included.
			now := c.opts.Now()
			resp, err := c.WindowHotspots(sensor, k, now.Add(-d).UnixNano(), now.UnixNano()+1)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			resp.Window = d.String()
			c.writeJSON(w, "/api/hotspots", resp)
			return
		}
		resp, err := c.Hotspots(sensor, k)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		c.writeJSON(w, "/api/hotspots", resp)
	})
	mux.HandleFunc("GET /api/policy", func(w http.ResponseWriter, r *http.Request) {
		c.writeJSON(w, "/api/policy", PolicyResponse{
			Enabled: c.opts.Policy.Enabled,
			Nodes:   c.PolicyStatuses(),
		})
	})
	return mux
}

// PolicyResponse is the /api/policy body: whether the engine runs, and
// every touched node's policy state.
type PolicyResponse struct {
	Enabled bool           `json:"enabled"`
	Nodes   []PolicyStatus `json:"nodes"`
}

// HotspotsResponse is the /api/hotspots body: the fleet's hottest code
// three ways — per-(node, function), merged per function across nodes,
// and per node.
type HotspotsResponse struct {
	K      int    `json:"k"`
	Sensor int    `json:"sensor"`
	Unit   string `json:"unit"`
	// Window, when set, scopes the answer to the trailing duration it
	// names (?window=). WindowFrom and WindowTo (RFC 3339) say what a
	// ranged answer covers: the range asked for, moved outward to granule
	// boundaries — a window narrower than a granule answers for all of it.
	Window     string `json:"window,omitempty"`
	WindowFrom string `json:"window_from,omitempty"`
	WindowTo   string `json:"window_to,omitempty"`
	// Functions ranks (node, function) pairs by thermal contribution —
	// the paper's per-node hot-spot answer, fleet-wide.
	Functions []apiFunction `json:"functions"`
	// Merged folds Functions across nodes into one row per function.
	Merged []FleetFunction `json:"merged"`
	// Nodes ranks whole nodes by average temperature.
	Nodes []apiNode `json:"nodes"`
}

// apiFunction and apiNode pin the JSON field names of internal/hotspot's
// result types, so the API contract survives internal renames.
type apiFunction struct {
	Node       uint32  `json:"node"`
	Name       string  `json:"name"`
	AvgTemp    float64 `json:"avg_temp"`
	MaxTemp    float64 `json:"max_temp"`
	TotalTimeS float64 `json:"total_time_s"`
	Score      float64 `json:"score"`
}

type apiNode struct {
	NodeID     uint32  `json:"node"`
	Avg        float64 `json:"avg"`
	Max        float64 `json:"max"`
	TrendPerS  float64 `json:"trend_per_s"`
	Volatility float64 `json:"volatility"`
}

// Hotspots computes the /api/hotspots answer from a live fleet snapshot,
// folded with any history that retention compacted out of raw storage —
// the associative fold makes the answer agree with an uninterrupted,
// uncompacted run. Nodes rankings need raw samples, so they cover live
// history only.
func (c *Collector) Hotspots(sensor, k int) (*HotspotsResponse, error) {
	return c.assembleHotspots(c.Profile(), c.archivedHeat(sensor), sensor, k)
}

// assembleHotspots ranks one profile snapshot (all-time or ranged)
// folded with archived heat into the /api/hotspots
// shape — the shared back half of Hotspots and WindowHotspots.
func (c *Collector) assembleHotspots(p *parser.Profile, arch []hotspot.FunctionHeat, sensor, k int) (*HotspotsResponse, error) {
	// Merge from the untruncated ranking, then cut both to k.
	full, err := HotFunctions(p, sensor, 0)
	if err != nil {
		return nil, err
	}
	if len(arch) > 0 {
		full = foldFunctionHeat(arch, full)
	}
	merged := MergeHotFunctions(full, k)
	if k > 0 && len(full) > k {
		full = full[:k]
	}
	hn, err := HotNodes(p, sensor, k)
	if err != nil {
		return nil, err
	}
	resp := &HotspotsResponse{
		K:         k,
		Sensor:    sensor,
		Unit:      c.opts.Unit.String(),
		Functions: make([]apiFunction, len(full)),
		Merged:    merged,
		Nodes:     make([]apiNode, len(hn)),
	}
	for i, f := range full {
		resp.Functions[i] = apiFunction{Node: f.Node, Name: f.Name, AvgTemp: f.AvgTemp, MaxTemp: f.MaxTemp, TotalTimeS: f.TotalTimeS, Score: f.Score}
	}
	for i, n := range hn {
		resp.Nodes[i] = apiNode{NodeID: n.NodeID, Avg: n.Avg, Max: n.Max, TrendPerS: n.TrendPerS, Volatility: n.Volatility}
	}
	return resp, nil
}

// critParam resolves the {node} path segment to a live critical-path
// snapshot, writing the HTTP error itself when it can't.
func (c *Collector) critParam(w http.ResponseWriter, r *http.Request) (*critpath.Summary, []critpath.Track, time.Duration, bool) {
	id, err := strconv.ParseUint(r.PathValue("node"), 10, 32)
	if err != nil {
		http.Error(w, "bad node id", http.StatusBadRequest)
		return nil, nil, 0, false
	}
	sum, tracks, dur, err := c.CritPath(uint32(id))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return nil, nil, 0, false
	}
	return sum, tracks, dur, true
}

// nodeParam resolves the {node} path segment to a live profile snapshot,
// writing the HTTP error itself when it can't.
func (c *Collector) nodeParam(w http.ResponseWriter, r *http.Request) (*parser.NodeProfile, bool) {
	id, err := strconv.ParseUint(r.PathValue("node"), 10, 32)
	if err != nil {
		http.Error(w, "bad node id", http.StatusBadRequest)
		return nil, false
	}
	np, err := c.NodeProfile(uint32(id))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return nil, false
	}
	return np, true
}

// maxTimelineWidth bounds ?width= on a text timeline: the gantt costs
// width bytes per lane, so an unchecked width lets one request allocate
// gigabytes. No terminal is wider.
const maxTimelineWidth = 4096

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// parseTimeParam reads a range bound as RFC 3339 (nanosecond precision
// allowed) or a unix timestamp in seconds (fractional allowed), returning
// wall-clock nanoseconds. A bound int64 nanoseconds cannot hold (NaN,
// ±Inf, beyond ±292 years of 1970) is an error.
func parseTimeParam(s string) (int64, error) {
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
		if t.Before(time.Unix(0, math.MinInt64)) || t.After(time.Unix(0, math.MaxInt64)) {
			return 0, fmt.Errorf("collect: time %q out of range", s)
		}
		return t.UnixNano(), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("collect: bad time %q", s)
	}
	// float64(math.MaxInt64) is 2⁶³, one past the largest int64.
	ns := f * 1e9
	if !(ns >= math.MinInt64 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("collect: time %q out of range", s)
	}
	return int64(ns), nil
}

// archivedMarker is the truncation comment a series response carries when
// part of the requested history survives only as folded archive heat.
func archivedMarker(events uint64) string {
	return fmt.Sprintf("truncated: %d events archived beyond series granularity", events)
}

// streamSeries emits node profiles as the CSV series format, preceded by
// comment lines. Error handling matches the original /api/series
// contract: a real 500 while no body byte is out, an aborted connection
// after — a silent empty 200 must not hide a failure.
func (c *Collector) streamSeries(w http.ResponseWriter, node uint32, nps []*parser.NodeProfile, comments []string) {
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	cw := &countingResponseWriter{ResponseWriter: w}
	cs, err := report.NewSeriesCSVStream(cw, comments...)
	for _, np := range nps {
		if err != nil {
			break
		}
		err = cs.Node(np)
	}
	if err == nil {
		return
	}
	c.metrics.streamErrors.Add(1)
	c.opts.Logger.Warn("series response failed", "route", "/api/series", "node", node, "bytes", cw.n, "err", err)
	if cw.n == 0 {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	panic(http.ErrAbortHandler)
}

// writeJSON encodes v as the response body. Encode failures (unmarshalable
// value, or the client hanging up mid-write) can't change the status line
// any more, but they are counted and logged instead of vanishing.
func (c *Collector) writeJSON(w http.ResponseWriter, route string, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		c.metrics.encodeErrors.Add(1)
		c.opts.Logger.Warn("response encode failed", "route", route, "err", err)
	}
}
