// Package critpath is the serialization-bottleneck analyzer: it answers
// *where parallel code loses time to waiting*, the axis the hot-spot
// ranking cannot see. Tempest ranks functions by time × temperature; a
// parallel code can score low on both while every rank but one sits in
// MPI_Barrier because a straggler is still computing. Following GAPP
// (PAPERS.md), the analyzer charges that wait to the code that *causes*
// it — the functions running on the lanes everyone else is waiting for —
// and, following ThreadScope, keeps a per-lane state timeline so the
// phase structure (compute vs collective vs idle) stays legible.
//
// The analyzer consumes the same facts as parser.Builder — what a
// trace.Fold core learned from each event: opened, closed, unmatched —
// online, in one pass, and maintains only O(lanes + functions + ops)
// state in tables indexed by the core's lane index and by FuncID:
//
//   - per-lane busy/wait/off accounting (a lane is Wait when its
//     innermost open function is a wait-class function, MPI_* by
//     default; Busy when it is ordinary code; Off when its stack is
//     empty);
//   - caused-wait attribution: whenever W lanes wait while B lanes run,
//     each running lane's innermost function is charged W/B wait-seconds
//     per second — the straggler's enclosing function accumulates
//     exactly the imbalance it inflicts on the rest of the fleet;
//   - serialization windows: maximal spans where exactly one lane is
//     busy while at least one other waits, charged to the function
//     holding the solo lane — the lock-shaped one-lane-busy pattern;
//   - per-op wait costs (calls, total/min/max per-lane wait, imbalance)
//     for every wait-class function, the barrier/collective wait
//     attribution table;
//   - optionally (Options.Timeline) a per-lane state track for gantt
//     rendering, bounded by Options.MaxTrackSegments with deterministic
//     coalescing.
//
// Unlike the Builder, the analyzer never poisons: structurally odd
// streams (orphan exits, cross-lane time regressions) are tolerated,
// counted, and reported on the Summary — a diagnostic tool must survive
// the traces that need diagnosing. On any stream the strict Builder
// accepts, StackAnomalies is zero (the fuzz target pins this).
//
// Feed order contract: events must arrive in non-decreasing timestamp
// order across lanes (the canonical (TS, lane) order every Scanner,
// Drain and shipped chunk stream already produces). A regression is
// clamped to the sweep clock and counted in OrderAnomalies rather than
// corrupting the accounting.
package critpath

import (
	"container/heap"
	"fmt"
	"strings"
	"time"

	"tempest/internal/trace"
)

// State classifies what a lane is doing at an instant.
type State uint8

// Lane states.
const (
	// Off means the lane has no open frames (not started, or finished).
	Off State = iota
	// Busy means the lane's innermost open function is ordinary code.
	Busy
	// Wait means the lane's innermost open function is wait-class (MPI_*).
	Wait
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Off:
		return "off"
	case Busy:
		return "busy"
	case Wait:
		return "wait"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// DefaultMaxTrackSegments bounds each lane's timeline track when
// Options.MaxTrackSegments is zero.
const DefaultMaxTrackSegments = 4096

// Options configures an Analyzer.
type Options struct {
	// Timeline records per-lane state tracks for gantt rendering. Off by
	// default: tracks cost O(state transitions) up to MaxTrackSegments
	// per lane, where the summary alone is O(lanes + functions).
	Timeline bool
	// MaxTrackSegments caps each lane's recorded track (minimum 2). When
	// a track fills, adjacent segments are pairwise merged, halving its
	// resolution — memory does not grow, and the amortized cost per
	// transition stays O(1). A track Tracks returns may hold one segment
	// more: the lane's open state, which is not recorded until it closes.
	// Zero means DefaultMaxTrackSegments.
	MaxTrackSegments int
}

func (o Options) withDefaults() Options {
	if o.MaxTrackSegments <= 0 {
		o.MaxTrackSegments = DefaultMaxTrackSegments
	} else if o.MaxTrackSegments < 2 {
		o.MaxTrackSegments = 2
	}
	return o
}

// funcAcc accumulates one function's critical-path costs. Functions are
// keyed by name, so the same code on different nodes folds together.
type funcAcc struct {
	name string
	idx  int32 // dense, indexes Analyzer.fnList; what a track records
	// op is the episode table of a wait-class function, nil for ordinary
	// code.
	op *opAcc
	// serial is time this function held the only busy lane while others
	// waited; windows/longest describe those spans.
	serial  time.Duration
	windows int64
	longest time.Duration
	// causedWait is wait-seconds accrued on *other* lanes while this
	// function ran on a busy lane (the W/B integral).
	causedWait float64
	calls      int64
}

// opAcc accumulates one wait-class function's episode costs.
type opAcc struct {
	name  string
	idx   int // dense, indexes every lane's waitByOp
	calls int64
}

// opWait is one lane's closed wait inside one op. seen tells an op the
// lane has finished a call to from one it never touched.
type opWait struct {
	d    time.Duration
	seen bool
}

// lane is one execution lane's streaming state. Its shadow stack lives
// in the node's trace.Fold core.
type lane struct {
	node uint32
	id   uint32

	state      State
	stateSince time.Duration

	busy, wait time.Duration // closed accruals (current state pending)
	seen       bool

	// cur is the innermost open function: ordinary code while
	// state==Busy, wait-class (cur.op set) while state==Wait, nil while
	// Off. waitSnap is the caused-wait integral when a busy function took
	// the lane; busySlot is the lane's place in Analyzer.busy meanwhile.
	cur      *funcAcc
	waitSnap float64
	busySlot int
	// causedWait mirrors the busy functions' charges per lane, for
	// straggler ranking.
	causedWait float64

	waitByOp []opWait // by opAcc.idx, grown on demand

	track []seg // optional timeline, bounded
}

// seg is how a lane's track stores a closed Segment: flat, with no
// pointer for the GC to scan, the function by its funcAcc.idx (-1 while
// Off). Tracks resolves names when it is read.
type seg struct {
	start, end time.Duration
	fn         int32
	state      State
}

// nodeFold is the analyzer's view of one node: the core whose facts it
// consumes and the flat tables that key its state by what the core hands
// out — lanes by FoldLane.Index, functions by FuncID.
type nodeFold struct {
	node  uint32
	core  *trace.Fold
	lanes []*lane    // by FoldLane.Index
	fns   []*funcAcc // by FuncID; never longer than the symbol table
	// unknown holds accumulators for function ids outside the symbol
	// table, so heap grows with how many distinct ones a damaged stream
	// names, not with the largest.
	unknown map[uint32]*funcAcc
}

// laneKey orders lanes across nodes.
func laneKey(node, id uint32) uint64 { return uint64(node)<<32 | uint64(id) }

// Segment is one homogeneous stretch of a lane's timeline track.
type Segment struct {
	Start, End time.Duration
	State      State
	// Func is the innermost function (Busy: the running code, Wait: the
	// MPI op). Empty while Off.
	Func string
}

// Track is one lane's recorded timeline.
type Track struct {
	Node     uint32
	Lane     uint32
	Segments []Segment
}

// Analyzer is the streaming critical-path analyzer. Zero value is not
// usable; construct with New. Not safe for concurrent use (callers
// serialize Add/Summary exactly as they do Builder.Add/Snapshot).
type Analyzer struct {
	opts Options

	funcs  map[string]*funcAcc
	fnList []*funcAcc // every function, by funcAcc.idx
	ops    []*opAcc   // wait-class functions, by opAcc.idx
	nodes  map[uint32]*nodeFold
	cur    *nodeFold // the node of the last event: streams arrive in per-node runs

	now     time.Duration // sweep clock: max timestamp observed
	events  uint64
	dropped uint64

	stackAnomalies uint64 // orphan or mismatched exits (tolerated)
	orderAnomalies uint64 // cross-lane timestamp regressions (clamped)

	// busy holds the currently-busy lanes (each knows its slot), so the
	// census and the solo lane of a serialization window are O(1).
	busy      []*lane
	waitCount int

	// waitInt is ∫ W(τ)/B(τ) dτ in seconds over B>0 — the caused-wait
	// integral busy lanes snapshot against.
	waitInt float64

	// Serialization window state: open while len(busy)==1 && waitCount≥1.
	serOpen  bool
	serStart time.Duration
	serFunc  *funcAcc
	serTotal time.Duration
}

// New returns an empty analyzer.
func New(opts Options) *Analyzer {
	return &Analyzer{
		opts:  opts.withDefaults(),
		funcs: map[string]*funcAcc{},
		nodes: map[uint32]*nodeFold{},
	}
}

// Events reports how many events have been consumed.
func (a *Analyzer) Events() uint64 { return a.events }

// Duration reports the sweep clock: the largest timestamp seen so far.
func (a *Analyzer) Duration() time.Duration { return a.now }

// StackAnomalies reports tolerated shadow-stack violations (orphan or
// mismatched exits). Zero on any stream the strict Builder accepts.
func (a *Analyzer) StackAnomalies() uint64 { return a.stackAnomalies }

// OrderAnomalies reports cross-lane timestamp regressions that were
// clamped to the sweep clock.
func (a *Analyzer) OrderAnomalies() uint64 { return a.orderAnomalies }

// fn interns a function accumulator by name.
func (a *Analyzer) fn(name string) *funcAcc {
	f, ok := a.funcs[name]
	if !ok {
		f = &funcAcc{name: name, idx: int32(len(a.fnList))}
		a.fnList = append(a.fnList, f)
		// MPI_ calls are wait-class: time inside them is communication,
		// not compute.
		if strings.HasPrefix(name, "MPI_") {
			f.op = &opAcc{name: name, idx: len(a.ops)}
			a.ops = append(a.ops, f.op)
		}
		a.funcs[name] = f
	}
	return f
}

// nodeFor returns (creating if needed) one node's state.
func (a *Analyzer) nodeFor(node uint32) *nodeFold {
	if nf := a.cur; nf != nil && nf.node == node {
		return nf
	}
	nf, ok := a.nodes[node]
	if !ok {
		nf = &nodeFold{node: node}
		a.nodes[node] = nf
	}
	a.cur = nf
	return nf
}

// fn maps a function id to its accumulator. Symbol tables are
// append-only, so the binding is stable and the lookup by name is paid
// once per (node, fid).
func (nf *nodeFold) fn(a *Analyzer, fid uint32) *funcAcc {
	if int(fid) < len(nf.fns) {
		if f := nf.fns[fid]; f != nil {
			return f
		}
	}
	name, err := nf.core.Sym().Name(fid)
	if err != nil {
		// Unknown symbol: a damaged stream. Synthesize a stable name so
		// accounting stays total; the Builder path reports the real error.
		// Outside the table by definition, so it goes to the spill map.
		f, ok := nf.unknown[fid]
		if !ok {
			if nf.unknown == nil {
				nf.unknown = map[uint32]*funcAcc{}
			}
			f = a.fn(fmt.Sprintf("?func%d", fid))
			nf.unknown[fid] = f
		}
		return f
	}
	if n := nf.core.Sym().Len(); len(nf.fns) < n {
		nf.fns = append(nf.fns, make([]*funcAcc, n-len(nf.fns))...)
	}
	nf.fns[fid] = a.fn(name)
	return nf.fns[fid]
}

// lane returns (creating if needed) the state kept for one of the core's
// lanes.
func (nf *nodeFold) lane(cl *trace.FoldLane) *lane {
	for len(nf.lanes) <= cl.Index {
		nf.lanes = append(nf.lanes, nil)
	}
	l := nf.lanes[cl.Index]
	if l == nil {
		l = &lane{node: nf.node, id: cl.ID}
		nf.lanes[cl.Index] = l
	}
	return l
}

// Add folds one batch of events recorded by node's tracer into the
// analysis, matching stacks on a core the analyzer keeps for that node.
// The batch may be a reused buffer; nothing is retained. sym resolves
// the batch's FuncIDs — the same table on every call for a node, or a
// later copy of it — and may be nil only for batches without enter/exit
// events. Add never fails structurally — odd streams are tolerated and
// counted — so the return is reserved for misuse.
func (a *Analyzer) Add(node uint32, sym *trace.SymTab, events []trace.Event) error {
	nf := a.nodeFor(node)
	if sym == nil {
		// Nothing to resolve in: enters and exits are anomalies that touch
		// no stack; the clock, drops and the event count still move.
		for i := range events {
			if k := events[i].Kind; k == trace.KindEnter || k == trace.KindExit {
				a.stackAnomalies++
			}
			a.apply(nf, &events[i], trace.Fact{})
		}
		return nil
	}
	if nf.core == nil {
		nf.core = trace.NewFold(sym)
	} else if sym != nf.core.Sym() {
		nf.core.SetSym(sym)
	}
	for i := range events {
		e := &events[i]
		a.apply(nf, e, nf.core.Step(e))
	}
	return nil
}

// Apply consumes one of node's events and the fact core derived from it —
// the entry point when the caller owns the core and steps it once for
// several consumers. core must be the same Fold on every call for a
// node, and a node fed through Apply is not also fed through Add.
func (a *Analyzer) Apply(node uint32, core *trace.Fold, e *trace.Event, m trace.Fact) {
	nf := a.nodeFor(node)
	nf.core = core
	a.apply(nf, e, m)
}

func (a *Analyzer) apply(nf *nodeFold, e *trace.Event, m trace.Fact) {
	ts := e.TS
	if ts < a.now {
		// The sweep cannot run backwards: clamp and count. Per-lane
		// order is still intact (tracers enforce lane monotonicity),
		// only the cross-lane interleave was imperfect.
		ts = a.now
		a.orderAnomalies++
	}
	a.advance(ts)
	switch m.Kind {
	case trace.FactOpened:
		fn := nf.fn(a, e.FuncID)
		fn.calls++
		if fn.op != nil {
			fn.op.calls++
		}
		a.setState(nf.lane(m.Lane), fn, ts)
	case trace.FactClosed:
		// Reclassify the lane by the frame below the one that closed.
		var below *funcAcc
		if st := m.Lane.Stack; len(st) > 0 {
			below = nf.fn(a, st[len(st)-1].Fid)
		}
		a.setState(nf.lane(m.Lane), below, ts)
	case trace.FactUnmatched:
		// Orphan and mismatched exits are dropped (the Builder's
		// MidStream rule), never fatal. The lane still counts as seen.
		nf.lane(m.Lane)
		a.stackAnomalies++
	default:
		if e.Kind == trace.KindDrop {
			a.dropped += e.Aux
		}
	}
	a.events++
}

// advance moves the sweep clock to ts, accruing the global caused-wait
// integral over the constant-state slice. Per-lane and per-window
// accruals are lazy (charged at their own transitions), so advance is
// O(1) regardless of lane count.
func (a *Analyzer) advance(ts time.Duration) {
	if ts <= a.now {
		return
	}
	if len(a.busy) > 0 && a.waitCount > 0 {
		dt := ts - a.now
		a.waitInt += dt.Seconds() * float64(a.waitCount) / float64(len(a.busy))
	}
	a.now = ts
}

// setState is the one place a lane's state changes. fn is the lane's
// innermost open function after the event — Wait under a wait-class
// function, Busy under ordinary code, Off under none. It closes the old
// state's accruals at ts, manages the serialization window, and records
// the timeline segment.
func (a *Analyzer) setState(l *lane, fn *funcAcc, ts time.Duration) {
	if !l.seen {
		l.seen = true
		l.stateSince = ts
	}
	// Close the outgoing state.
	held := ts - l.stateSince
	switch l.state {
	case Busy:
		l.busy += held
		charge := a.waitInt - l.waitSnap
		l.cur.causedWait += charge
		l.causedWait += charge
		last := a.busy[len(a.busy)-1]
		a.busy[l.busySlot], last.busySlot = last, l.busySlot
		a.busy = a.busy[:len(a.busy)-1]
	case Wait:
		l.wait += held
		for len(l.waitByOp) <= l.cur.op.idx {
			l.waitByOp = append(l.waitByOp, opWait{})
		}
		w := &l.waitByOp[l.cur.op.idx]
		w.d += held
		w.seen = true
		a.waitCount--
	}
	if a.opts.Timeline && held >= 0 && (l.state != Off || len(l.track) > 0) {
		a.recordSegment(l, seg{start: l.stateSince, end: ts, fn: l.segFn(), state: l.state})
	}
	// A serialization window cannot outlive any state transition: either
	// the solo lane changed function (re-open under the new name) or the
	// busy/wait census changed (re-evaluate below).
	a.closeSerial(ts)

	// Open the incoming state.
	l.stateSince = ts
	l.cur = fn
	switch {
	case fn == nil:
		l.state = Off
	case fn.op != nil:
		l.state = Wait
		a.waitCount++
	default:
		l.state = Busy
		l.waitSnap = a.waitInt
		l.busySlot = len(a.busy)
		a.busy = append(a.busy, l)
	}
	a.reopenSerial(ts)
}

// segFn is the function index a segment of the lane's current state
// records: -1 while Off.
func (l *lane) segFn() int32 {
	if l.cur != nil {
		return l.cur.idx
	}
	return -1
}

// closeSerial ends the open serialization window, charging its span.
func (a *Analyzer) closeSerial(ts time.Duration) {
	if !a.serOpen {
		return
	}
	a.serOpen = false
	d := ts - a.serStart
	if d <= 0 {
		return
	}
	a.serTotal += d
	f := a.serFunc
	f.serial += d
	f.windows++
	if d > f.longest {
		f.longest = d
	}
}

// reopenSerial opens a serialization window if the census warrants one:
// exactly one lane busy, at least one other waiting on it.
func (a *Analyzer) reopenSerial(ts time.Duration) {
	if a.serOpen || len(a.busy) != 1 || a.waitCount < 1 {
		return
	}
	a.serOpen = true
	a.serStart = ts
	a.serFunc = a.busy[0].cur
}

// Summary and Tracks close nothing: they read pending state
// non-destructively, so the analyzer keeps accumulating — the live
// view's snapshot semantics, like Builder.Snapshot.

// heapItem merges pre-sorted per-trace event streams for AnalyzeTraces.
type heapItem struct {
	trIdx int
	evIdx int
	ts    time.Duration
}

type mergeHeap []heapItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].ts != h[j].ts {
		return h[i].ts < h[j].ts
	}
	return h[i].trIdx < h[j].trIdx
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(heapItem)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// AnalyzeTrace runs one node's whole trace through a fresh analyzer —
// the batch entry point, byte-identical to any chunking of the same
// events through Add.
func AnalyzeTrace(tr *trace.Trace, opts Options) (*Analyzer, error) {
	if tr == nil {
		return nil, fmt.Errorf("critpath: nil trace")
	}
	a := New(opts)
	if err := a.Add(tr.NodeID, tr.Sym, tr.Events); err != nil {
		return nil, err
	}
	return a, nil
}

// AnalyzeTraces merges several per-node traces (each already in
// canonical (TS, lane) order) into one cluster-wide analysis: lanes are
// keyed (node, lane), functions fold by name across nodes. This is the
// cross-rank view the NAS property tests validate — a straggler on node
// 3 is charged for the barrier wait on nodes 0–2.
func AnalyzeTraces(traces []*trace.Trace, opts Options) (*Analyzer, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("critpath: no traces")
	}
	a := New(opts)
	h := make(mergeHeap, 0, len(traces))
	for i, tr := range traces {
		if tr == nil {
			return nil, fmt.Errorf("critpath: nil trace %d", i)
		}
		if len(tr.Events) > 0 {
			h = append(h, heapItem{trIdx: i, evIdx: 0, ts: tr.Events[0].TS})
		}
	}
	heap.Init(&h)
	one := make([]trace.Event, 1)
	for h.Len() > 0 {
		it := h[0]
		tr := traces[it.trIdx]
		one[0] = tr.Events[it.evIdx]
		if err := a.Add(tr.NodeID, tr.Sym, one); err != nil {
			return nil, err
		}
		if it.evIdx+1 < len(tr.Events) {
			h[0] = heapItem{trIdx: it.trIdx, evIdx: it.evIdx + 1, ts: tr.Events[it.evIdx+1].TS}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return a, nil
}
