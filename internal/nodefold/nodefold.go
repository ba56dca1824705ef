// Package nodefold is one node's event fold: the single stack-matching
// pass the paper's parser makes over a node's function timeline and
// temperature series (§3.2). A trace.Fold core is stepped once per event,
// the profile builder takes each fact and the optional critical-path
// analyzer takes it next, and commits are marked at wall-clock granule
// boundaries for ranged rankings. The collector's nodes, a live session,
// ranged series decodes and retention compaction all fold through a Node.
package nodefold

import (
	"sort"
	"time"

	"tempest/internal/critpath"
	"tempest/internal/parser"
	"tempest/internal/trace"
)

// CritTrackCap bounds each lane's critical-path timeline to a fixed
// segment budget, so per-node state stays O(lanes + functions), never
// O(events): a full track coarsens (adjacent segments merge) instead.
const CritTrackCap = 512

// Node folds one node's events into Builder and, unless New was told
// otherwise, Crit (nil then), which are the caller's to read.
type Node struct {
	id      uint32
	core    *trace.Fold
	Builder *parser.Builder
	Crit    *critpath.Analyzer

	// head is the end of the granule of the newest commit, 0 before the
	// first; marks are the builder's positions at the end of every granule
	// committed in before that one, oldest first.
	head  int64
	marks []granuleMark
}

// granuleMark is the node's position at the end of a granule: everything
// committed before end, the builder's first events events.
type granuleMark struct {
	end    int64 // wall clock, exclusive
	events uint64
	m      *parser.Mark
}

// New returns an empty fold over sym for node id. midStream marks a
// stream that starts after the node's first event — behind compacted
// history, or at the edge of a replayed window — so exits of invocations
// opened earlier are expected, not errors. crit adds the critical-path
// analyzer with the timeline on, its tracks capped at CritTrackCap.
func New(id uint32, sym *trace.SymTab, unit parser.Unit, midStream, crit bool) *Node {
	core := trace.NewFold(sym)
	n := &Node{id: id, core: core, Builder: parser.NewBuilderOn(core, id, parser.Options{Unit: unit, MidStream: midStream})}
	if crit {
		n.Crit = critpath.New(critpath.Options{Timeline: true, MaxTrackSegments: CritTrackCap})
	}
	return n
}

// Add steps the core once per event and hands the fact to the builder,
// then to the analyzer. It stops at the builder's first error, which
// poisons the builder, so the analyzer has seen exactly the events the
// builder took. Nothing of the batch is retained.
func (n *Node) Add(batch []trace.Event) error {
	if n.Crit == nil {
		return n.Builder.Add(batch)
	}
	for i := range batch {
		e := &batch[i]
		m := n.core.Step(e)
		if err := n.Builder.Apply(e, m); err != nil {
			return err
		}
		n.Crit.Apply(n.id, n.core, e, m)
	}
	return nil
}

// Commit adds one batch committed at wall (Unix nanoseconds) to a history
// of granules gran wide, then folds the builder (parser.Builder.Fold). The
// first batch of a new granule is preceded by a mark: the builder's
// position at the end of the granule it leaves. A commit clock that steps
// back stays in the head granule.
func (n *Node) Commit(batch []trace.Event, wall int64, gran time.Duration) error {
	if end := GranuleOf(wall, gran) + gran.Nanoseconds(); end > n.head {
		if n.head != 0 {
			n.marks = append(n.marks, granuleMark{end: n.head, events: n.Builder.Events(), m: n.Builder.Mark()})
		}
		n.head = end
	}
	err := n.Add(batch)
	n.Builder.Fold()
	return err
}

// Marks counts the granule marks the node holds.
func (n *Node) Marks() int { return len(n.marks) }

// Between picks the two positions in the node's stream that bound what it
// committed in [from, to), both on granule boundaries: nil lo is the
// stream's origin, nil hi its head. ok is false for a node that committed
// nothing in the range.
func (n *Node) Between(from, to int64) (lo, hi *parser.Mark, ok bool) {
	// Position 0 is the origin, i the i-th mark, and one past the marks the
	// head, which belongs to the granule of the newest commit.
	at := func(bound int64) int {
		i := sort.Search(len(n.marks), func(i int) bool { return n.marks[i].end > bound })
		if i == len(n.marks) && n.head != 0 && n.head <= bound {
			i++
		}
		return i
	}
	l, h := at(from), at(to)
	if l == h {
		return nil, nil, false
	}
	if l > 0 {
		lo = n.marks[l-1].m
	}
	if h <= len(n.marks) {
		hi = n.marks[h-1].m
	}
	return lo, hi, true
}

// Granules calls fn for each granule committed in, oldest first, with its
// end, the positions around it as Between returns them and the events the
// builder took in it, until fn returns false.
func (n *Node) Granules(fn func(end int64, lo, hi *parser.Mark, events uint64) bool) {
	var lo *parser.Mark
	var at uint64
	for _, g := range n.marks {
		if !fn(g.end, lo, g.m, g.events-at) {
			return
		}
		lo, at = g.m, g.events
	}
	if n.head != 0 {
		fn(n.head, lo, nil, n.Builder.Events()-at)
	}
}

// GranuleOf returns the start of the granule gran wide that wall lies in.
func GranuleOf(wall int64, gran time.Duration) int64 {
	start := wall - wall%gran.Nanoseconds()
	if start > wall { // % truncates towards zero: before 1970 it rounded up
		start -= gran.Nanoseconds()
	}
	return start
}
