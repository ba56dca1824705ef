package collect

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"time"

	"tempest/internal/hotspot"
	"tempest/internal/parser"
	"tempest/internal/store"
	"tempest/internal/trace"
)

// The historical read path: time-ranged queries over the durable store.
// Raw segments still on disk are re-decoded on demand — the same
// builder-rebuild machinery the retention compactor uses, driven by
// store.HistoryStore.ReadRange — and ranges older than retention are
// answered from the archive's folded per-granule windows. Each shard
// keeps a small LRU of decoded windows so a dashboard scrubbing back and
// forth doesn't re-scan the same segments per request. All of this state
// is shard-owned, like every builder: touched only inside do.

// ErrHistoryUnavailable reports a time-ranged query against a collector
// (or shard) without a durable store: memory-only ingest has no history
// beyond the live builders.
var ErrHistoryUnavailable = errors.New("collect: durable history not enabled")

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

// windowDecode is one [from, to) range rebuilt from raw batches: every
// node's finished profile over exactly the in-range events. Cached
// entries are read-only once built — readers shallow-copy the
// NodeProfiles into response Profiles and never write through them.
type windowDecode struct {
	profiles []*parser.NodeProfile // sorted by NodeID
	byNode   map[uint32]*parser.NodeProfile
}

// histCacheEnt is one LRU slot.
type histCacheEnt struct {
	key string
	to  int64 // invalidation bound: a later append inside [from, to) stales it
	dec *windowDecode
}

// shardHistory is a shard's historical-query state: the decoded archive
// (refreshed when the store's compaction generation moves) and the LRU
// of decoded raw windows. Zero value ready; shard-owned.
type shardHistory struct {
	gen    uint64
	genSet bool
	arch   *fleetArchive
	lru    *list.List
	idx    map[string]*list.Element
}

// history returns the shard's store as a HistoryStore when time-ranged
// queries are possible (disk-backed and not degraded).
func (sh *shard) history() (store.HistoryStore, bool) {
	hs, ok := sh.store.(store.HistoryStore)
	return hs, ok && sh.durable
}

// histArchive returns the decoded checkpoint archive, re-decoding when a
// compaction moved the raw/archived split (which also stales every
// cached raw decode: their batches may have been folded away).
func (sh *shard) histArchive(hs store.HistoryStore) *fleetArchive {
	gen := hs.CompactGen()
	if sh.hist.genSet && sh.hist.gen == gen {
		return sh.hist.arch
	}
	arch, err := decodeArchive(hs.ArchiveBlob())
	if err != nil {
		sh.c.opts.Logger.Error("store archive undecodable; historical queries see raw history only",
			"shard", sh.id, "err", err)
		arch = &fleetArchive{}
	}
	sh.hist.gen, sh.hist.genSet = gen, true
	sh.hist.arch = arch
	sh.hist.lru, sh.hist.idx = nil, nil
	return arch
}

// invalidateAppend drops cached decodes whose range extends past a fresh
// commit at wall — they no longer cover every in-range batch.
func (h *shardHistory) invalidateAppend(wall int64) {
	if h.lru == nil {
		return
	}
	var stale []*list.Element
	for el := h.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*histCacheEnt).to > wall {
			stale = append(stale, el)
		}
	}
	for _, el := range stale {
		delete(h.idx, el.Value.(*histCacheEnt).key)
		h.lru.Remove(el)
	}
}

// windowCache is how many decoded windows each shard's LRU holds.
const windowCache = 16

// decodeWindow rebuilds every node's profile over the raw batches
// committed in [from, to), serving from the LRU when the same range was
// decoded before. The prefix pass replays earlier chunks through each
// node's symbol table only — chunk symbol ids are dense and cumulative,
// so in-range payloads decode correctly no matter where the range starts —
// and the in-range pass folds events into throwaway mid-stream builders.
// The archive the range's folded half is answered from comes back with it.
func (sh *shard) decodeWindow(hs store.HistoryStore, from, to int64) (*fleetArchive, *windowDecode, error) {
	sh.c.metrics.windowQueries.Add(1)
	arch := sh.histArchive(hs) // before the lookup: a compaction since empties the cache
	key := fmt.Sprintf("%d:%d", from, to)
	if el, ok := sh.hist.idx[key]; ok {
		sh.c.metrics.windowCacheHits.Add(1)
		sh.hist.lru.MoveToFront(el)
		return arch, el.Value.(*histCacheEnt).dec, nil
	}
	start := time.Now()

	type winFold struct {
		sym  *trace.SymTab
		b    *parser.Builder
		dead bool
	}
	folds := map[uint32]*winFold{}
	var order []uint32
	// fold returns the state of the node a batch of events belongs to,
	// nil for a batch that holds none or whose node has dropped out.
	fold := func(b store.Batch) *winFold {
		if b.Flags&(store.FlagPolicy|store.FlagCoarse) != 0 {
			return nil
		}
		nf, ok := folds[b.Node]
		if !ok {
			// Post-compaction raw chunks were encoded against the
			// archive's cumulative table; seed it so ids stay dense.
			nf = &winFold{sym: arch.find(b.Node).symTab()}
			folds[b.Node] = nf
			order = append(order, b.Node)
		}
		if nf.dead {
			return nil
		}
		return nf
	}
	// A chunk that will not decode breaks its node's symbol continuity
	// and a batch that will not fold poisons its builder: either way the
	// node's later batches are unattributable, so it drops out of this
	// window rather than mis-attributing heat.
	err := hs.ReadRange(from, to,
		func(b store.Batch) error { // prefix: symbols only
			// Stored payloads decoded whole at ingest and the store
			// checksums them, so the events behind the header are not
			// re-read: a cold range read costs the same wherever the
			// range sits.
			if nf := fold(b); nf != nil {
				_, err := decodeChunkSymbols(b.Payload, nf.sym)
				nf.dead = err != nil
			}
			return nil
		},
		func(b store.Batch) error { // in range: symbols + events
			nf := fold(b)
			if nf == nil {
				return nil
			}
			ev, err := sh.decode(b.Payload, nf.sym)
			if err == nil {
				if nf.b == nil {
					nf.b = newBuilder(trace.NewFold(nf.sym), b.Node, sh.c.opts.Unit, sh.c.opts.SampleInterval, true)
				}
				if b.Flags&store.FlagTruncated != 0 {
					nf.b.SetTruncated(true)
				}
				err = nf.b.Add(ev)
				nf.b.Fold()
			}
			nf.dead = err != nil
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	dec := &windowDecode{byNode: map[uint32]*parser.NodeProfile{}}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, id := range order {
		nf := folds[id]
		if nf.b == nil || nf.dead {
			continue
		}
		np, err := nf.b.Finish()
		if err != nil {
			continue
		}
		dec.profiles = append(dec.profiles, np)
		dec.byNode[id] = np
	}
	sh.c.metrics.windowDecodeSeconds.ObserveSince(start)

	if sh.hist.lru == nil {
		sh.hist.lru = list.New()
		sh.hist.idx = map[string]*list.Element{}
	}
	sh.hist.idx[key] = sh.hist.lru.PushFront(&histCacheEnt{key: key, to: to, dec: dec})
	for sh.hist.lru.Len() > windowCache {
		el := sh.hist.lru.Back()
		delete(sh.hist.idx, el.Value.(*histCacheEnt).key)
		sh.hist.lru.Remove(el)
	}
	return arch, dec, nil
}

// WindowHotspots computes a time-ranged /api/hotspots answer over
// [from, to) (wall-clock nanos, half-open): raw-covered history is
// re-decoded exactly, archived history contributes every folded window
// overlapping the range (at the folded granularity). Shards without
// durable stores are skipped; when no shard has one the error is
// ErrHistoryUnavailable.
func (c *Collector) WindowHotspots(sensor, k int, from, to int64) (*HotspotsResponse, error) {
	var nps []*parser.NodeProfile
	var heat []hotspot.FunctionHeat
	durable := 0
	for _, sh := range c.shards {
		var err error
		closed := sh.do(func() {
			hs, ok := sh.history()
			if !ok {
				return
			}
			durable++
			arch, dec, derr := sh.decodeWindow(hs, from, to)
			if err = derr; err != nil {
				return
			}
			nps = append(nps, dec.profiles...)
			heat = foldFunctionHeat(heat, arch.rangeHeat(from, to, sensor))
		})
		if closed != nil {
			return nil, closed
		}
		if err != nil {
			return nil, err
		}
	}
	if durable == 0 {
		return nil, ErrHistoryUnavailable
	}
	return c.assembleHotspots(profileOf(c.opts.Unit, nps), heat, sensor, k)
}

// WindowSeries rebuilds one node's profile over the raw batches in
// [from, to). np is nil when the node exists but has no raw events in
// range; archEvents/archived report history the range touches that
// survives only as folded archive heat (beyond series granularity).
func (c *Collector) WindowSeries(id uint32, from, to int64) (np *parser.NodeProfile, archEvents uint64, archived bool, err error) {
	sh := c.shardFor(id)
	closed := sh.do(func() {
		hs, ok := sh.history()
		if !ok {
			err = ErrHistoryUnavailable
			return
		}
		if _, ok := sh.nodes[id]; !ok {
			err = errUnknownNode(id)
			return
		}
		arch, dec, derr := sh.decodeWindow(hs, from, to)
		if err = derr; err != nil {
			return
		}
		np = dec.byNode[id]
		archEvents, archived = arch.nodeRangeArchived(id, from, to)
	})
	if closed != nil {
		err = closed
	}
	return np, archEvents, archived, err
}

// NodeWindows lists the stored windows one node's history can be
// queried at — the /api/windows/{node} answer: folded archive windows
// (this node's slices) and the shard's raw segment windows (whole-shard
// granularity; any sub-range of those is decodable on demand).
func (c *Collector) NodeWindows(id uint32) (*WindowsResponse, error) {
	resp := &WindowsResponse{Node: id, Windows: []WindowEntry{}}
	sh := c.shardFor(id)
	err := c.known(id, func(*nodeState) {
		hs, ok := sh.history()
		if !ok {
			return
		}
		resp.Durable = true
		for _, w := range sh.histArchive(hs).windows {
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
		for _, wi := range hs.Windows() {
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
