package collect

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"tempest/internal/hotspot"
	"tempest/internal/parser"
	"tempest/internal/store"
	"tempest/internal/trace"
)

// The checkpoint archive: what retention compaction keeps of raw batches
// it deletes. Per node it records the ingest cursors a restarted
// collector needs (resume sequence, cumulative symbol table, segment and
// event counts). The folded hot-spot heat lives in a separate window
// section: compaction buckets aged-out batches by commit wall clock into
// granule-aligned windows and ranks each bucket independently, so
// compacted history still answers time-ranged hot-spot queries at that
// granularity instead of collapsing into one all-time fold per pass.
// Folds are associative — merging any set of windows with the same
// time-weighted math MergeHotFunctions uses reproduces the all-time
// ranking — so however many compactions history passes through, Hotspots
// answers as if every event were still raw. Full per-sample profiles are
// the price of retention: /api/profile only reflects events still in raw
// segments.

const (
	archiveVersion = 2
	// archiveMaxCount bounds every decoded collection so a corrupt blob
	// cannot demand absurd allocations.
	archiveMaxCount = 1 << 24
)

// archiveNode is one node's compacted ingest cursors.
type archiveNode struct {
	node      uint32
	rank      uint32
	nextSeq   uint64 // ship resume cursor after the compacted prefix
	segments  uint64
	events    uint64 // events folded into heat (no longer replayable)
	truncated bool
	syms      []string // cumulative symbol table, dense ids
}

// symTab rebuilds the cumulative symbol table post-compaction chunks
// were encoded against (empty for a node the archive never saw).
func (ent *archiveNode) symTab() *trace.SymTab {
	sym := trace.NewSymTab()
	if ent != nil {
		for _, name := range ent.syms {
			sym.Register(name)
		}
	}
	return sym
}

// archiveWindowNode is one node's contribution to one folded window.
type archiveWindowNode struct {
	node   uint32
	events uint64
	heat   [][]hotspot.FunctionHeat // per sensor id
}

// archiveWindow is the folded heat of one wall-clock granule
// [fromWall, toWall).
type archiveWindow struct {
	fromWall int64
	toWall   int64
	nodes    []archiveWindowNode
}

// overlaps reports whether the window intersects the half-open query
// range [from, to).
func (w *archiveWindow) overlaps(from, to int64) bool {
	return w.fromWall < to && w.toWall > from
}

// fleetArchive is a whole shard's compacted history: per-node cursors,
// nodes ascending, plus folded heat windows ascending by start time.
type fleetArchive struct {
	nodes   []*archiveNode
	windows []archiveWindow
}

// node finds or creates one node's entry.
func (a *fleetArchive) node(id, rank uint32) *archiveNode {
	for _, ent := range a.nodes {
		if ent.node == id {
			return ent
		}
	}
	ent := &archiveNode{node: id, rank: rank}
	a.nodes = append(a.nodes, ent)
	sort.Slice(a.nodes, func(i, j int) bool { return a.nodes[i].node < a.nodes[j].node })
	return ent
}

// find returns one node's entry, nil when the archive never saw it.
func (a *fleetArchive) find(id uint32) *archiveNode {
	for _, ent := range a.nodes {
		if ent.node == id {
			return ent
		}
	}
	return nil
}

// addWindow folds one window into the archive. Two compaction passes can
// legitimately produce the same granule (a bucket split across segments
// folded at different times); their heat merges associatively instead of
// duplicating the window.
func (a *fleetArchive) addWindow(w archiveWindow) {
	if len(w.nodes) == 0 {
		return
	}
	for i := range a.windows {
		ex := &a.windows[i]
		if ex.fromWall != w.fromWall || ex.toWall != w.toWall {
			continue
		}
		for _, wn := range w.nodes {
			merged := false
			for j := range ex.nodes {
				en := &ex.nodes[j]
				if en.node != wn.node {
					continue
				}
				en.events += wn.events
				for len(en.heat) < len(wn.heat) {
					en.heat = append(en.heat, nil)
				}
				for sid := range wn.heat {
					en.heat[sid] = foldFunctionHeat(en.heat[sid], wn.heat[sid])
				}
				merged = true
				break
			}
			if !merged {
				ex.nodes = append(ex.nodes, wn)
			}
		}
		sort.Slice(ex.nodes, func(i, j int) bool { return ex.nodes[i].node < ex.nodes[j].node })
		return
	}
	sort.Slice(w.nodes, func(i, j int) bool { return w.nodes[i].node < w.nodes[j].node })
	a.windows = append(a.windows, w)
	sort.Slice(a.windows, func(i, j int) bool {
		if a.windows[i].fromWall != a.windows[j].fromWall {
			return a.windows[i].fromWall < a.windows[j].fromWall
		}
		return a.windows[i].toWall < a.windows[j].toWall
	})
}

// nodeRangeArchived reports whether [from, to) touches archived history
// for one node, and how many archived events that overlap covers.
func (a *fleetArchive) nodeRangeArchived(id uint32, from, to int64) (events uint64, overlap bool) {
	for _, w := range a.windows {
		if !w.overlaps(from, to) {
			continue
		}
		for _, wn := range w.nodes {
			if wn.node == id {
				overlap = true
				events += wn.events
			}
		}
	}
	return events, overlap
}

// encodeArchive serialises the archive blob (uvarints and LE float bits).
func encodeArchive(a *fleetArchive) []byte {
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	uv := func(v uint64) { buf.Write(scratch[:binary.PutUvarint(scratch[:], v)]) }
	fv := func(v float64) {
		binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(v))
		buf.Write(scratch[:8])
	}
	str := func(s string) { uv(uint64(len(s))); buf.WriteString(s) }
	heat := func(sensors [][]hotspot.FunctionHeat) {
		uv(uint64(len(sensors)))
		for _, sensor := range sensors {
			uv(uint64(len(sensor)))
			for _, f := range sensor {
				str(f.Name)
				fv(f.AvgTemp)
				fv(f.MaxTemp)
				fv(f.TotalTimeS)
				fv(f.Score)
			}
		}
	}

	uv(archiveVersion)
	uv(uint64(len(a.nodes)))
	for _, ent := range a.nodes {
		uv(uint64(ent.node))
		uv(uint64(ent.rank))
		uv(ent.nextSeq)
		uv(ent.segments)
		uv(ent.events)
		var flags uint64
		if ent.truncated {
			flags = 1
		}
		uv(flags)
		uv(uint64(len(ent.syms)))
		for _, name := range ent.syms {
			str(name)
		}
	}
	uv(uint64(len(a.windows)))
	for _, w := range a.windows {
		uv(uint64(w.fromWall))
		uv(uint64(w.toWall))
		uv(uint64(len(w.nodes)))
		for _, wn := range w.nodes {
			uv(uint64(wn.node))
			uv(wn.events)
			heat(wn.heat)
		}
	}
	return buf.Bytes()
}

// decodeArchive parses an archive blob. A nil or empty blob is an empty
// archive. The store's hash chain already vouches for integrity, but a
// dropped-then-rebuilt archive path exists, so every count is bounded.
func decodeArchive(blob []byte) (*fleetArchive, error) {
	a := &fleetArchive{}
	if len(blob) == 0 {
		return a, nil
	}
	buf := bytes.NewBuffer(blob)
	uv := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(buf)
		if err != nil {
			return 0, fmt.Errorf("collect: archive %s: %w", what, err)
		}
		if v > archiveMaxCount<<8 {
			return 0, fmt.Errorf("collect: archive %s %d out of range", what, v)
		}
		return v, nil
	}
	fv := func(what string) (float64, error) {
		var b [8]byte
		if _, err := io.ReadFull(buf, b[:]); err != nil {
			return 0, fmt.Errorf("collect: archive %s: %w", what, err)
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
	}
	str := func(what string) (string, error) {
		n, err := uv(what + " length")
		if err != nil || n > maxHelloName {
			return "", fmt.Errorf("collect: archive %s length", what)
		}
		s := make([]byte, n)
		if _, err := io.ReadFull(buf, s); err != nil {
			return "", fmt.Errorf("collect: archive %s: %w", what, err)
		}
		return string(s), nil
	}
	readHeat := func(node uint32) ([][]hotspot.FunctionHeat, error) {
		nsensors, err := uv("sensor count")
		// Allocated up front, so bounded by what the blob could hold: a
		// sensor takes at least its heat count's byte.
		if err != nil || nsensors > uint64(buf.Len()) {
			return nil, fmt.Errorf("collect: archive sensor count")
		}
		heat := make([][]hotspot.FunctionHeat, nsensors)
		for sid := uint64(0); sid < nsensors; sid++ {
			nheat, err := uv("heat count")
			if err != nil || nheat > archiveMaxCount {
				return nil, fmt.Errorf("collect: archive heat count")
			}
			for h := uint64(0); h < nheat; h++ {
				f := hotspot.FunctionHeat{Node: node}
				if f.Name, err = str("heat name"); err != nil {
					return nil, err
				}
				for _, dst := range []*float64{&f.AvgTemp, &f.MaxTemp, &f.TotalTimeS, &f.Score} {
					if *dst, err = fv("heat value"); err != nil {
						return nil, err
					}
				}
				heat[sid] = append(heat[sid], f)
			}
		}
		return heat, nil
	}

	ver, err := binary.ReadUvarint(buf)
	if err != nil || ver != archiveVersion {
		return nil, fmt.Errorf("collect: archive version %d", ver)
	}
	nNodes, err := uv("node count")
	if err != nil || nNodes > archiveMaxCount {
		return nil, fmt.Errorf("collect: archive node count")
	}
	for i := uint64(0); i < nNodes; i++ {
		ent := &archiveNode{}
		node, err := uv("node")
		if err != nil {
			return nil, err
		}
		ent.node = uint32(node)
		rank, err := uv("rank")
		if err != nil {
			return nil, err
		}
		ent.rank = uint32(rank)
		// Cursors are unbounded counters, not allocation sizes.
		for _, dst := range []*uint64{&ent.nextSeq, &ent.segments, &ent.events} {
			if *dst, err = binary.ReadUvarint(buf); err != nil {
				return nil, fmt.Errorf("collect: archive cursor: %w", err)
			}
		}
		flags, err := uv("flags")
		if err != nil {
			return nil, err
		}
		ent.truncated = flags&1 != 0
		nsyms, err := uv("symbol count")
		if err != nil || nsyms > archiveMaxCount {
			return nil, fmt.Errorf("collect: archive symbol count")
		}
		for s := uint64(0); s < nsyms; s++ {
			name, err := str("symbol")
			if err != nil {
				return nil, err
			}
			ent.syms = append(ent.syms, name)
		}
		a.nodes = append(a.nodes, ent)
	}
	nWindows, err := uv("window count")
	if err != nil || nWindows > archiveMaxCount {
		return nil, fmt.Errorf("collect: archive window count")
	}
	for i := uint64(0); i < nWindows; i++ {
		var w archiveWindow
		// Bounds are wall-clock nanoseconds — far past uv's allocation
		// bound — so read them raw like the cursor counters.
		from, err := binary.ReadUvarint(buf)
		if err != nil {
			return nil, fmt.Errorf("collect: archive window from: %w", err)
		}
		to, err := binary.ReadUvarint(buf)
		if err != nil {
			return nil, fmt.Errorf("collect: archive window to: %w", err)
		}
		w.fromWall, w.toWall = int64(from), int64(to)
		nwn, err := uv("window node count")
		if err != nil || nwn > archiveMaxCount {
			return nil, fmt.Errorf("collect: archive window node count")
		}
		for j := uint64(0); j < nwn; j++ {
			var wn archiveWindowNode
			node, err := uv("window node")
			if err != nil {
				return nil, err
			}
			wn.node = uint32(node)
			if wn.events, err = binary.ReadUvarint(buf); err != nil {
				return nil, fmt.Errorf("collect: archive window events: %w", err)
			}
			if wn.heat, err = readHeat(wn.node); err != nil {
				return nil, err
			}
			w.nodes = append(w.nodes, wn)
		}
		a.windows = append(a.windows, w)
	}
	if buf.Len() != 0 {
		return nil, fmt.Errorf("collect: %d trailing archive bytes", buf.Len())
	}
	return a, nil
}

// foldFunctionHeat merges two per-(node, function) rankings with the same
// associative math MergeHotFunctions uses per function: scores and times
// sum, averages weight by time, maxima take the max. The result is ranked
// like hotspot.HotFunctions (score desc, node, name), so folding archived
// history into a live ranking yields a valid ranking.
func foldFunctionHeat(a, b []hotspot.FunctionHeat) []hotspot.FunctionHeat {
	type key struct {
		node uint32
		name string
	}
	idx := map[key]int{}
	out := make([]hotspot.FunctionHeat, 0, len(a)+len(b))
	for _, src := range [2][]hotspot.FunctionHeat{a, b} {
		for _, f := range src {
			k := key{f.Node, f.Name}
			i, ok := idx[k]
			if !ok {
				idx[k] = len(out)
				out = append(out, f)
				continue
			}
			g := &out[i]
			if t := g.TotalTimeS + f.TotalTimeS; t > 0 {
				g.AvgTemp = (g.AvgTemp*g.TotalTimeS + f.AvgTemp*f.TotalTimeS) / t
			}
			if f.MaxTemp > g.MaxTemp {
				g.MaxTemp = f.MaxTemp
			}
			g.TotalTimeS += f.TotalTimeS
			g.Score += f.Score
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// NewCompactor returns the store.Compactor the collector installs:
// aged-out raw batches are bucketed by commit wall clock into
// granule-aligned windows the way the live collector marks its builders —
// one throwaway mid-stream Builder per node for the whole pass, a mark
// where the node's batches cross into another bucket, and per bucket the
// ranged snapshot between two marks, ranked by internal/hotspot per
// sensor — and the per-window rankings appended to the previous archive.
// An invocation open across a bucket boundary is charged to each bucket
// for its clipped length. granule <= 0 folds the whole pass into a single
// window spanning its batches. Deterministic; retains nothing.
func NewCompactor(unit parser.Unit, sampleInterval, granule time.Duration) store.Compactor {
	gran := granule.Nanoseconds()
	return func(prevArchive []byte, batches []store.Batch) ([]byte, error) {
		arch, err := decodeArchive(prevArchive)
		if err != nil {
			return nil, err
		}
		// cut is where a node's stream leaves a bucket: the index of the
		// bucket, the builder's position (nil: the head) and the node's
		// events in it.
		type cut struct {
			bucket int
			m      *parser.Mark
			events uint64
		}
		type nodeFold struct {
			ent *archiveNode
			sym *trace.SymTab
			// dead marks a poisoned builder; decoding continues for the
			// symbol table.
			b    *parser.Builder
			dead bool
			cuts []cut
			open cut // the bucket of the node's newest batch
		}
		folds := map[uint32]*nodeFold{}
		var order []uint32
		var scratch []trace.Event
		var buckets []archiveWindow // in commit order

		for _, wb := range batches {
			if wb.Flags&store.FlagPolicy != 0 {
				// Policy directives age out with their retention window:
				// the engine re-converges from live traffic, and a
				// checkpoint has nowhere to resume a revision counter from.
				continue
			}
			// Window boundary: commit clocks are nondecreasing, so crossing
			// into a new granule closes the previous bucket.
			bs, be := wb.WallNano, wb.WallNano+1
			if gran > 0 {
				bs = wb.WallNano - wb.WallNano%gran
				be = bs + gran
			}
			if last := len(buckets) - 1; last < 0 || (gran > 0 && bs != buckets[last].fromWall) {
				buckets = append(buckets, archiveWindow{fromWall: bs, toWall: be})
			} else if gran <= 0 {
				// Single-window pass: the bucket grows to cover every batch.
				buckets[0].fromWall = min(buckets[0].fromWall, bs)
				buckets[0].toWall = max(buckets[0].toWall, be)
			}
			nf, ok := folds[wb.Node]
			if !ok {
				ent := arch.node(wb.Node, wb.Rank)
				nf = &nodeFold{ent: ent, sym: ent.symTab()}
				folds[wb.Node] = nf
				order = append(order, wb.Node)
			}
			if wb.Flags&store.FlagCoarse != 0 {
				// A coarse report consumed a ship sequence number but holds
				// no events: advance the cursor, count the segment, and
				// leave the builder alone.
				if wb.Seq >= nf.ent.nextSeq {
					nf.ent.nextSeq = wb.Seq + 1
				}
				nf.ent.segments++
				continue
			}
			ev, err := decodeChunk(wb.Payload, nf.sym, scratch)
			if err != nil {
				return nil, fmt.Errorf("collect: compact node %d: %w", wb.Node, err)
			}
			scratch = ev[:0]
			if wb.Flags&store.FlagBulk == 0 && wb.Seq >= nf.ent.nextSeq {
				nf.ent.nextSeq = wb.Seq + 1
			}
			nf.ent.segments++
			if wb.Flags&store.FlagTruncated != 0 {
				nf.ent.truncated = true
			}
			if nf.dead {
				continue
			}
			switch cur := len(buckets) - 1; {
			case nf.b == nil:
				nf.b = newBuilder(trace.NewFold(nf.sym), wb.Node, unit, sampleInterval, true)
				nf.open.bucket = cur
			case nf.open.bucket != cur:
				nf.open.m = nf.b.Mark()
				nf.cuts = append(nf.cuts, nf.open)
				nf.open = cut{bucket: cur}
			}
			if err := nf.b.Add(ev); err != nil {
				// A pass whose builder poisoned contributes cursors but no
				// heat — the same events poisoned the live builder too.
				nf.dead = true
			} else {
				nf.open.events += uint64(len(ev))
			}
			nf.b.Fold()
		}

		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, id := range order {
			nf := folds[id]
			nf.ent.syms = nf.sym.Names()
			if nf.b == nil || nf.dead {
				continue
			}
			var prev *parser.Mark
			for _, c := range append(nf.cuts, nf.open) {
				np, err := nf.b.SnapshotRange(prev, c.m)
				if err != nil {
					break
				}
				prev = c.m
				nf.ent.events += c.events
				wn := archiveWindowNode{node: id, events: c.events}
				p := &parser.Profile{Unit: unit, Nodes: []parser.NodeProfile{*np}}
				wn.heat = make([][]hotspot.FunctionHeat, len(np.Samples))
				for sid := range np.Samples {
					hf, err := HotFunctions(p, sid, 0)
					if err != nil || len(hf) == 0 {
						continue
					}
					wn.heat[sid] = hf
				}
				if wn.events > 0 || len(wn.heat) > 0 {
					buckets[c.bucket].nodes = append(buckets[c.bucket].nodes, wn)
				}
			}
		}
		for _, w := range buckets {
			arch.addWindow(w)
		}
		return encodeArchive(arch), nil
	}
}
