package collect

import (
	"errors"
	"math"
	"time"

	"tempest/internal/hotspot"
	"tempest/internal/nodefold"
	"tempest/internal/parser"
	"tempest/internal/store"
)

// The ranged read path. Rankings over a time range are a ranged snapshot
// of the live fold: every node's builder is marked at each granule
// boundary its commits cross, a range is snapped outward to granule
// boundaries, and what a node contributes is parser.SnapshotRange between
// its two marks — no store read, no decode, nothing cached, and so the
// same answer on a shard whose store has died or never was. History that
// retention folded away before this process started comes from the
// archive's per-granule heat, loaded at start-up. A range is exact in
// node-time at each boundary: an invocation open across one is charged to
// each side for its clipped length.
//
// Series over a time range are the one thing still rebuilt from the
// durable store, where sub-granule resolution is the point: the raw
// batches in range are re-decoded on demand through store.ReadRange at
// every request. All of this state is shard-owned, like every builder:
// touched only inside do.

// ErrHistoryUnavailable reports a ranged series query against a collector
// (or shard) without a durable store: memory-only ingest keeps no raw
// history to rebuild a series from.
var ErrHistoryUnavailable = errors.New("collect: durable history not enabled")

// archiveGranule is one node's archived heat for one granule [from, to),
// per sensor id.
type archiveGranule struct {
	from, to int64
	heat     [][]hotspot.FunctionHeat
}

// snap moves [from, to) outward to granule boundaries; an empty range
// stays empty.
func (c *Collector) snap(from, to int64) (int64, int64) {
	if from >= to {
		return from, from
	}
	gran := c.opts.ArchiveGranule
	from, to = nodefold.GranuleOf(from, gran), nodefold.GranuleOf(to-1, gran)
	if to > math.MaxInt64-gran.Nanoseconds() {
		return from, math.MaxInt64
	}
	return from, to + gran.Nanoseconds()
}

// archivedHeat folds the node's archived granules that overlap [from, to)
// for one sensor with the same time-weighted math as everything else.
func (ns *nodeState) archivedHeat(from, to int64, sensor int) []hotspot.FunctionHeat {
	var out []hotspot.FunctionHeat
	for _, g := range ns.arch {
		if g.from < to && g.to > from && sensor >= 0 && sensor < len(g.heat) {
			out = foldFunctionHeat(out, g.heat[sensor])
		}
	}
	return out
}

// WindowHotspots computes the /api/hotspots answer over [from, to)
// (wall-clock nanos, half-open), snapped outward to granule boundaries —
// the response says to which. Every node contributes the part of its live
// fold it committed in the range, on every shard, durable or not, plus
// whatever of the range was archived before this process started.
func (c *Collector) WindowHotspots(sensor, k int, from, to int64) (*HotspotsResponse, error) {
	from, to = c.snap(from, to)
	var nps []*parser.NodeProfile
	var heat []hotspot.FunctionHeat
	for _, sh := range c.shards {
		closed := sh.do(func() {
			for _, ns := range sh.nodes {
				heat = append(heat, ns.archivedHeat(from, to, sensor)...)
				lo, hi, ok := ns.fold.Between(from, to)
				if !ok {
					continue
				}
				// A poisoned builder is skipped, as in Profile.
				if np, err := ns.fold.Builder.SnapshotRange(lo, hi); err == nil {
					nps = append(nps, np)
				}
			}
		})
		if closed != nil {
			return nil, closed
		}
	}
	resp, err := c.assembleHotspots(profileOf(c.opts.Unit, nps), heat, sensor, k)
	if err != nil {
		return nil, err
	}
	resp.WindowFrom = time.Unix(0, from).UTC().Format(time.RFC3339Nano)
	resp.WindowTo = time.Unix(0, to).UTC().Format(time.RFC3339Nano)
	return resp, nil
}

// shardHistory is a shard's decoded checkpoint archive, refreshed when
// the store's compaction generation moves. Zero value ready; shard-owned.
type shardHistory struct {
	gen    uint64
	genSet bool
	arch   *fleetArchive
}

// histArchive returns the decoded checkpoint archive, re-decoding when a
// compaction moved the raw/archived split.
func (sh *shard) histArchive() *fleetArchive {
	gen := sh.store.CompactGen()
	if sh.hist.genSet && sh.hist.gen == gen {
		return sh.hist.arch
	}
	arch, err := decodeArchive(sh.store.ArchiveBlob())
	if err != nil {
		sh.c.opts.Logger.Error("store archive undecodable; historical queries see raw history only",
			"shard", sh.id, "err", err)
		arch = &fleetArchive{}
	}
	sh.hist.gen, sh.hist.genSet = gen, true
	sh.hist.arch = arch
	return arch
}

// decodeWindow rebuilds one node's profile over the raw batches it
// committed in [from, to), nil when there are none. Other nodes' batches
// are skipped at the batch header. The prefix pass replays the node's earlier
// chunks through its symbol table only — chunk symbol ids are dense and
// cumulative, so in-range payloads decode correctly no matter where the
// range starts — and the in-range pass folds events into a throwaway
// mid-stream builder. The archive that says what of the range survives
// only as folded heat comes back with it.
func (sh *shard) decodeWindow(id uint32, from, to int64) (*fleetArchive, *parser.NodeProfile, error) {
	sh.c.metrics.windowQueries.Add(1)
	arch := sh.histArchive()
	start := time.Now()

	// Post-compaction raw chunks were encoded against the archive's
	// cumulative table; seed it so ids stay dense.
	sym := arch.find(id).symTab()
	var nf *nodefold.Node
	// A chunk that will not decode breaks the node's symbol continuity and
	// a batch that will not fold poisons its builder: either way the later
	// batches are unattributable, so the node drops out of this window
	// rather than mis-attributing heat.
	dead := false
	mine := func(sb store.Batch) bool {
		return sb.Node == id && sb.Flags&(store.FlagPolicy|store.FlagCoarse) == 0 && !dead
	}
	err := sh.store.ReadRange(from, to,
		func(sb store.Batch) error { // prefix: symbols only
			// Stored payloads decoded whole at ingest and the store
			// checksums them, so the events behind the header are not
			// re-read: a cold range read costs the same wherever the
			// range sits.
			if mine(sb) {
				_, err := decodeChunkSymbols(sb.Payload, sym)
				dead = err != nil
			}
			return nil
		},
		func(sb store.Batch) error { // in range: symbols + events
			if !mine(sb) {
				return nil
			}
			ev, err := sh.decode(sb.Payload, sym)
			if err == nil {
				if nf == nil {
					nf = nodefold.New(id, sym, sh.c.opts.Unit, true, false)
				}
				if sb.Flags&store.FlagTruncated != 0 {
					nf.Builder.SetTruncated(true)
				}
				err = nf.Add(ev)
				nf.Builder.Fold()
			}
			dead = err != nil
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	var np *parser.NodeProfile
	if nf != nil && !dead {
		np, _ = nf.Builder.Finish() // a profile or nothing
	}
	sh.c.metrics.windowDecodeSeconds.ObserveSince(start)
	return arch, np, nil
}

// WindowSeries rebuilds one node's profile over the raw batches in
// [from, to). np is nil when the node exists but has no raw events in
// range; archEvents/archived report history the range touches that
// survives only as folded archive heat (beyond series granularity).
func (c *Collector) WindowSeries(id uint32, from, to int64) (np *parser.NodeProfile, archEvents uint64, archived bool, err error) {
	sh := c.shardFor(id)
	closed := sh.do(func() {
		if sh.store == nil {
			err = ErrHistoryUnavailable
			return
		}
		if _, ok := sh.nodes[id]; !ok {
			err = errUnknownNode(id)
			return
		}
		var arch *fleetArchive
		if arch, np, err = sh.decodeWindow(id, from, to); err == nil {
			archEvents, archived = arch.nodeRangeArchived(id, from, to)
		}
	})
	if closed != nil {
		err = closed
	}
	return np, archEvents, archived, err
}

// WindowEntry is one stored window a node's history can be queried at,
// as served by /api/windows/{node}.
type WindowEntry struct {
	// Kind is "raw" (batches on disk, queryable at any sub-range) or
	// "archived" (folded heat, queryable only at this granularity).
	Kind string    `json:"kind"`
	From time.Time `json:"from"`
	To   time.Time `json:"to"`
	// Batches counts stored batches in a raw window (whole-shard segment
	// granularity, not per node).
	Batches int `json:"batches,omitempty"`
	// Events counts this node's events folded into an archived window.
	Events uint64 `json:"events,omitempty"`
	// Active marks the raw segment still receiving appends.
	Active bool `json:"active,omitempty"`
}

// WindowsResponse is the /api/windows/{node} body.
type WindowsResponse struct {
	Node    uint32        `json:"node"`
	Durable bool          `json:"durable"`
	Windows []WindowEntry `json:"windows"`
}

// NodeWindows lists the stored windows one node's history can be
// queried at — the /api/windows/{node} answer: folded archive windows
// (this node's slices) and the shard's raw segment windows (whole-shard
// granularity; any sub-range of those is decodable on demand).
func (c *Collector) NodeWindows(id uint32) (*WindowsResponse, error) {
	resp := &WindowsResponse{Node: id, Windows: []WindowEntry{}}
	sh := c.shardFor(id)
	err := c.known(id, func(*nodeState) {
		if sh.store == nil {
			return
		}
		resp.Durable = true
		for _, w := range sh.histArchive().windows {
			for _, wn := range w.nodes {
				if wn.node != id {
					continue
				}
				resp.Windows = append(resp.Windows, WindowEntry{
					Kind:   "archived",
					From:   time.Unix(0, w.fromWall).UTC(),
					To:     time.Unix(0, w.toWall).UTC(),
					Events: wn.events,
				})
			}
		}
		for _, wi := range sh.store.Windows() {
			resp.Windows = append(resp.Windows, WindowEntry{
				Kind: "raw",
				From: time.Unix(0, wi.FirstWall).UTC(),
				// Stored bounds are inclusive observed commits; the API speaks
				// half-open ranges, so the window covers up to LastWall+1.
				To:      time.Unix(0, wi.LastWall+1).UTC(),
				Batches: wi.Batches,
				Active:  wi.Active,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}
