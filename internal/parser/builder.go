package parser

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"tempest/internal/stats"
	"tempest/internal/trace"
)

// funcState is the part of one function's profile state that every enter
// and exit touches, indexed by FuncID.
type funcState struct {
	// intervals are the resident spans, merged inclusive: every span on a
	// builder nobody folds, behind a fold boundary only those a later
	// event can still touch.
	intervals []Interval
	calls     int64
}

// foldState is the rest of it, which only Fold and finish touch: what is
// left of the function's history behind the fold boundary.
type foldState struct {
	// spilled is the total length of the spans Fold took out of intervals,
	// spillEnd where the last of them ended.
	spilled, spillEnd time.Duration
	// vals holds, per sensor id, the values of the settled samples the
	// function covered, in sample order.
	vals [][]float64
}

// Builder is the streaming core of the parser: it consumes event batches
// as they arrive — from a trace.Scanner, a live Tracer drain, or a whole
// in-memory trace — and maintains just enough state to produce a
// NodeProfile at any moment:
//
//   - per-lane shadow stacks of open function invocations, kept by the
//     trace.Fold core the builder consumes (its own, or one it shares
//     with other consumers of the same stream),
//   - per-function interval sets kept merged online (InsertInterval), so
//     a million back-to-back calls collapse as they close instead of
//     accumulating a million raw intervals,
//   - per-sensor sample timelines (the profile's own output) and
//     O(1)-state streaming summaries (stats.Accumulator) for live views,
//   - sensor identity/health markers, drop counts and the running
//     duration.
//
// Peak memory is O(profile) — samples, merged intervals, open frames —
// independent of how many events flowed through, where batch Parse holds
// the whole event slice plus one raw interval per call. An owner that
// calls Fold between batches and does not need FuncProfile.Intervals
// brings the intervals down to those of its last three batches: what is
// left grows with samples, not events.
//
// Feed order contract: events within a lane must arrive in record order
// (any Scanner or Tracer drain guarantees this); lanes may interleave
// arbitrarily across batches. Finish consumes the builder; Snapshot
// profiles a copy, leaving the builder accumulating — the live hot-spot
// view of an in-progress run.
type Builder struct {
	opts      Options
	nodeID    uint32
	core      *trace.Fold // lane stacks and the symbol table
	truncated bool

	events   uint64 // events consumed (global index for error messages)
	duration time.Duration
	dropped  uint64

	sensorNames map[int]string
	maxSensor   int
	health      []HealthEvent
	samples     [][]Sample           // per sensor id: settled ones in sample order, then arrival order
	settled     []int                // per sensor id: how many of samples, from the front, are settled
	sensorAcc   []*stats.Accumulator // per sensor id, O(1) streaming stats

	funcs  []funcState // by FuncID; never longer than the symbol table
	folded []foldState // by FuncID, as long as funcs
	active []uint32    // the functions that hold resident spans

	// The fold boundary (see Fold): samples stamped before it are settled,
	// spans that ended before it spilled, and any enter, exit or sample
	// that still arrives from before it is late. It starts at the trace
	// origin and only Fold moves it.
	bound    time.Duration
	marks    [2]time.Duration // duration at the last Fold and at the one before
	markedAt uint64           // events at the last Fold
	late     uint64
	unsealed []*Mark // the marks the boundary has not passed yet, oldest first

	err error // poisoned after a structural error
}

// NewBuilder returns an empty streaming builder for one node's trace.
// sym resolves marker and function names; passing nil is allowed only
// for traces without enter/exit/marker events.
func NewBuilder(nodeID uint32, sym *trace.SymTab, opts Options) *Builder {
	return NewBuilderOn(trace.NewFold(sym), nodeID, opts)
}

// NewBuilderOn returns an empty builder that consumes core's facts. The
// owner of a shared core steps it once per event and hands each fact to
// Apply here and to the core's other consumers; Add is for a builder
// that is its core's only consumer.
func NewBuilderOn(core *trace.Fold, nodeID uint32, opts Options) *Builder {
	return &Builder{
		opts:        opts,
		nodeID:      nodeID,
		core:        core,
		sensorNames: map[int]string{},
		maxSensor:   -1,
	}
}

// SetTruncated marks the eventual profile as recovered from a torn
// trace tail (the Scanner's Truncated verdict).
func (b *Builder) SetTruncated(t bool) { b.truncated = t }

// Truncated reports what SetTruncated last set.
func (b *Builder) Truncated() bool { return b.truncated }

// Events reports how many events have been consumed.
func (b *Builder) Events() uint64 { return b.events }

// Duration reports the largest timestamp seen so far.
func (b *Builder) Duration() time.Duration { return b.duration }

// Late counts the enters, exits and samples that arrived stamped before
// the fold boundary of their moment. Their attribution is best effort;
// with none, a folded builder's profile equals an unfolded one's.
func (b *Builder) Late() uint64 { return b.late }

// Resident counts the spans held in memory.
func (b *Builder) Resident() int {
	n := 0
	for _, fid := range b.active {
		n += len(b.funcs[fid].intervals)
	}
	return n
}

// Add folds one batch of events into the builder. The batch may be a
// reused buffer (Scanner semantics): nothing is retained beyond the
// call. After a structural error the builder is poisoned and every
// subsequent Add or Finish returns that error.
func (b *Builder) Add(events []trace.Event) error {
	if b.err != nil {
		return b.err
	}
	for i := range events {
		e := &events[i]
		if err := b.Apply(e, b.core.Step(e)); err != nil {
			return err
		}
	}
	return nil
}

// Apply consumes one event and the fact the builder's core derived from
// it. Errors poison the builder exactly as in Add.
func (b *Builder) Apply(e *trace.Event, m trace.Fact) error {
	if b.err == nil {
		if b.err = b.apply(e, m); b.err == nil {
			b.events++
		}
	}
	return b.err
}

// fn returns one function's state. The core has checked fid against the
// symbol table, which bounds how far the table grows.
func (b *Builder) fn(fid uint32) *funcState {
	if int(fid) >= len(b.funcs) {
		n := b.core.NumSyms() - len(b.funcs)
		b.funcs = append(b.funcs, make([]funcState, n)...)
		b.folded = append(b.folded, make([]foldState, n)...)
	}
	return &b.funcs[fid]
}

func (b *Builder) apply(e *trace.Event, m trace.Fact) error {
	if e.TS > b.duration {
		b.duration = e.TS
	} else if e.TS < b.bound {
		switch e.Kind {
		case trace.KindEnter, trace.KindExit, trace.KindSample:
			b.late++
		}
	}
	if m.Unknown {
		// Caught here, one batch is rejected; caught at Finish (where the
		// name is first needed) the node's whole profile would be lost.
		return fmt.Errorf("parser: event %d: %s of %s, outside the symbol table of %d, on lane %d", b.events, e.Kind, b.funcName(e.FuncID), b.core.NumSyms(), e.Lane)
	}
	switch e.Kind {
	case trace.KindMarker:
		name, err := b.core.Sym().Name(e.FuncID)
		if err != nil {
			return fmt.Errorf("parser: marker symbol: %w", err)
		}
		if id, label, ok := parseSensorMarker(name); ok {
			b.sensorNames[id] = label
			if id > b.maxSensor {
				b.maxSensor = id
			}
		}
		if id, state, ok := parseHealthMarker(name); ok {
			b.health = append(b.health, HealthEvent{TS: e.TS, SensorID: id, State: state})
			if id > b.maxSensor {
				b.maxSensor = id
			}
		}
	case trace.KindSample:
		sid := int(e.SensorID)
		if sid > b.maxSensor {
			b.maxSensor = sid
		}
		for len(b.samples) <= sid {
			b.samples = append(b.samples, nil)
			b.settled = append(b.settled, 0)
			b.sensorAcc = append(b.sensorAcc, stats.NewAccumulator(false))
		}
		v := b.opts.Unit.convert(e.ValueC)
		b.samples[sid] = append(b.samples[sid], Sample{TS: e.TS, Value: v})
		b.sensorAcc[sid].Add(v)
	case trace.KindDrop:
		b.dropped += e.Aux
	case trace.KindEnter:
		b.fn(e.FuncID).calls++
	case trace.KindExit:
		st := m.Lane.Stack
		switch {
		case m.Kind == trace.FactClosed && e.TS >= m.Enter:
			b.insert(e.FuncID, Interval{Start: m.Enter, End: e.TS})
		case m.Kind == trace.FactClosed:
			// A lane's clock never runs backwards in a recorded stream: an
			// inverted span is damage (or a hostile shipper), and
			// InsertInterval is only defined for Start <= End.
			return fmt.Errorf("parser: event %d: exit of %s at %v precedes its enter at %v on lane %d", b.events, b.funcName(e.FuncID), e.TS, m.Enter, e.Lane)
		case b.opts.MidStream:
			// invocation opened before this stream began
		case len(st) == 0:
			return fmt.Errorf("parser: event %d: exit of %s with empty stack on lane %d", b.events, b.funcName(e.FuncID), e.Lane)
		default:
			return fmt.Errorf("parser: event %d: exit of %s while %s is open on lane %d", b.events, b.funcName(e.FuncID), b.funcName(st[len(st)-1].Fid), e.Lane)
		}
	}
	return nil
}

// funcName resolves a function id for error messages. A structural error
// is exactly when the stream may be damaged, so an unresolvable id falls
// back to the raw number instead of compounding the failure.
func (b *Builder) funcName(fid uint32) string {
	if name, err := b.core.Sym().Name(fid); err == nil {
		return fmt.Sprintf("%q", name)
	}
	return fmt.Sprintf("func %d", fid)
}

// insert adds one span to a function's resident set.
func (b *Builder) insert(fid uint32, iv Interval) {
	f := b.fn(fid)
	if len(f.intervals) == 0 || iv.Start < b.bound {
		// Off the per-event path: the function's first resident span, or
		// one that began behind the boundary.
		if len(f.intervals) == 0 {
			b.active = append(b.active, fid)
		}
		// A span that starts inside what the function has spilled can
		// only come from a late event: it keeps the part after the spill,
		// so spilled and resident time never overlap and TotalTime stays
		// within the trace's duration.
		if end := b.folded[fid].spillEnd; iv.Start < end {
			iv.Start = end
			if iv.End < end {
				iv.End = end
			}
		}
	}
	f.intervals = InsertInterval(f.intervals, iv)
}

// Fold ends a batch: it moves the fold boundary up to the newest
// timestamp seen before the previous batch began and folds what lies
// behind it. Samples stamped before the boundary are settled — their
// values join the value lists of the functions that cover them — and
// spans that ended before it are spilled: their length is added to the
// function's total and they are dropped. A builder whose owner calls Fold
// after every batch keeps the spans of its last three batches, plus one
// per function with an open invocation, and FuncProfile.Intervals shows
// only those; everything else in its profile is what the same events give
// a builder nobody folds, provided the stream is in order to within two
// batches. Whatever is not (Late) is counted and attributed best effort.
//
// The distance is two batches because that is what a Tracer guarantees:
// an event of drain k+1 was recorded after drain k emptied its lane, and
// everything in drain k−1 was stamped before drain k began — but the
// clock is read before the lane's lock is taken, so one drain cycle of
// disorder is possible. A batch without events is not a batch.
func (b *Builder) Fold() {
	if b.events == b.markedAt || b.err != nil {
		return
	}
	bound := b.marks[1]
	b.marks = [2]time.Duration{b.duration, b.marks[0]}
	b.markedAt = b.events
	if bound == b.bound {
		return
	}
	b.bound = bound
	// An invocation still open has been running from its enter to the
	// boundary at least. Holding that as a span is what lets samples
	// settle against spans alone, and keeps every earlier span of the
	// function that touches it — recursion, the same function returning
	// on another lane — resident until the invocation closes over them:
	// spilling those now would count them twice.
	for _, l := range b.core.Lanes() {
		for _, fr := range l.Stack {
			if fr.Enter < bound {
				b.insert(fr.Fid, Interval{Start: fr.Enter, End: bound})
			}
		}
	}
	// Samples first: a span that ends before the boundary may cover one.
	// Then a span that ended before the boundary is final: every later
	// span of its function starts at or after the boundary, so nothing can
	// merge with it any more and the union's length is a plain sum.
	due := b.due(bound - 1)
	// A mark the boundary has passed is sealed: the due samples stamped up
	// to it are settled first, and it notes where every value list stands.
	for len(b.unsealed) > 0 && b.unsealed[0].T < bound {
		m := b.unsealed[0]
		b.unsealed = b.unsealed[1:]
		var head [][]Sample
		head, due = splitDue(due, m.T)
		m.seal(len(b.funcs), len(b.samples))
		for _, fid := range b.active {
			b.settle(fid, head)
		}
		for fid := range b.folded {
			m.sealFunc(fid, b.folded[fid].vals)
		}
	}
	held := b.active[:0]
	for _, fid := range b.active {
		b.settle(fid, due)
		f := &b.funcs[fid]
		n := 0
		for n < len(f.intervals) && f.intervals[n].End < bound {
			b.folded[fid].spilled += f.intervals[n].Duration()
			n++
		}
		if n > 0 {
			b.folded[fid].spillEnd = f.intervals[n-1].End
			f.intervals = f.intervals[:copy(f.intervals, f.intervals[n:])]
		}
		if len(f.intervals) > 0 {
			held = append(held, fid)
		}
	}
	b.active = held
}

// due takes the samples stamped at or before through that are not settled
// yet off the pending end of each series — per sensor id, in time order —
// and marks them settled: the caller owes each function a call of settle
// with them. Nil when there are none.
func (b *Builder) due(through time.Duration) [][]Sample {
	var due [][]Sample
	for sid, all := range b.samples {
		pending := all[b.settled[sid]:]
		if len(pending) == 0 {
			continue
		}
		sort.SliceStable(pending, func(i, j int) bool { return pending[i].TS < pending[j].TS })
		n := upTo(pending, through)
		if n == 0 {
			continue
		}
		if due == nil {
			due = make([][]Sample, len(b.samples))
		}
		due[sid] = pending[:n]
		b.settled[sid] += n
	}
	return due
}

// settle appends the value of each due sample that a resident span of the
// function covers to the function's list for the sample's sensor. It is
// the builder's only sample attribution: Fold settles what falls behind
// the boundary, finish the rest.
func (b *Builder) settle(fid uint32, due [][]Sample) {
	ivs, f := b.funcs[fid].intervals, &b.folded[fid]
	for sid, samples := range due {
		for _, s := range samples {
			if !CoversAny(ivs, s.TS) {
				continue
			}
			for len(f.vals) <= sid {
				f.vals = append(f.vals, nil)
			}
			f.vals[sid] = append(f.vals[sid], s.Value)
		}
	}
}

// OpenFunctions returns the distinct functions currently open on any
// lane's shadow stack — the instantaneous "where is the program now"
// of a live session.
func (b *Builder) OpenFunctions() []string {
	seen := map[uint32]bool{}
	var out []string
	for _, l := range b.core.Lanes() {
		for _, f := range l.Stack {
			if !seen[f.Fid] {
				seen[f.Fid] = true
				if name, err := b.core.Sym().Name(f.Fid); err == nil {
					out = append(out, name)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// SensorStats returns O(1)-state streaming summaries of each sensor's
// full timeline so far (Med/Mod are NaN — moment statistics only), in
// the profile's unit. Entries with N==0 had no samples yet.
func (b *Builder) SensorStats() []stats.Summary {
	out := make([]stats.Summary, len(b.sensorAcc))
	for i, acc := range b.sensorAcc {
		if acc.N() == 0 {
			continue
		}
		s, err := acc.Summary()
		if err == nil {
			out[i] = s
		}
	}
	return out
}

// Finish closes dangling frames at the final duration, attributes
// samples to merged intervals and produces the NodeProfile — the exact
// computation batch Parse performs, fed from streamed state. The builder
// is consumed: further Add calls have undefined results.
func (b *Builder) Finish() (*NodeProfile, error) {
	return b.finish(nil, nil)
}

// Snapshot produces an in-progress NodeProfile without consuming the
// builder: open frames are treated as running until the latest event
// seen, exactly how Finish treats a crashed run's dangling frames. The
// builder keeps accumulating afterwards.
func (b *Builder) Snapshot() (*NodeProfile, error) {
	return b.SnapshotRange(nil, nil)
}

// SnapshotRange is Snapshot over the part of the stream between two of
// the builder's marks, lo taken before hi; a nil lo is the stream's
// origin, a nil hi the present. Per function, TotalTime and Calls are what
// a Snapshot at hi reported less what one at lo did, and the statistics
// summarise the values of the samples stamped after lo.T and up to hi.T
// that the function covered — a contiguous part of the list Snapshot
// summarises whole, so consecutive ranges add up to the all-time profile
// and a range of everything is Snapshot bit for bit. Samples, HealthEvents
// and the significance rule follow the range, Duration is its end, and
// only a range of everything lists Intervals.
func (b *Builder) SnapshotRange(lo, hi *Mark) (*NodeProfile, error) {
	return b.clone(between(lo, hi, b.duration)).finish(lo, hi)
}

// between returns the node-times a range lies between: after from, up to
// to. end is the present.
func between(lo, hi *Mark, end time.Duration) (from, to time.Duration) {
	from, to = -1, end
	if lo != nil {
		from = lo.T
	}
	if hi != nil {
		to = hi.T
	}
	return from, to
}

// spans copies the builder state that running the open invocations up to
// the present touches: the resident spans. The core is shared — nothing
// here writes to its stacks.
func (b *Builder) spans() *Builder {
	c := &Builder{
		opts:      b.opts,
		nodeID:    b.nodeID,
		core:      b.core,
		truncated: b.truncated,
		events:    b.events,
		duration:  b.duration,
		dropped:   b.dropped,
		maxSensor: b.maxSensor,
		err:       b.err,

		funcs:  append([]funcState(nil), b.funcs...),
		folded: append([]foldState(nil), b.folded...),
		active: b.active[:len(b.active):len(b.active)],
	}
	for fid := range c.funcs {
		c.funcs[fid].intervals = append([]Interval(nil), c.funcs[fid].intervals...)
	}
	return c
}

// clone copies the builder state that finish mutates or retains, for a
// profile of the samples stamped after from and up to to: the resident
// spans and those samples. Of the settled samples — in time order, unless
// one was late — only the ones in range are copied, so a range costs what
// it holds, not what the stream held; the pending ones all are, finish
// sorts them out. The settled values are shared, through slices clipped to
// their length: finish only appends, and its first append moves the
// clone's list to an array of its own.
func (b *Builder) clone(from, to time.Duration) *Builder {
	c := b.spans()
	c.sensorNames = make(map[int]string, len(b.sensorNames))
	c.health = append([]HealthEvent(nil), b.health...)
	c.samples = make([][]Sample, len(b.samples))
	c.settled = make([]int, len(b.settled))
	for k, v := range b.sensorNames {
		c.sensorNames[k] = v
	}
	for i, s := range b.samples {
		settled, pending := s[:b.settled[i]], s[b.settled[i]:]
		settled = settled[upTo(settled, from):upTo(settled, to)]
		c.samples[i] = append(append(make([]Sample, 0, len(settled)+len(pending)), settled...), pending...)
		c.settled[i] = len(settled)
	}
	for fid := range c.folded {
		if f := &c.folded[fid]; f.vals != nil {
			vals := make([][]float64, len(f.vals))
			for sid, v := range f.vals {
				vals[sid] = v[:len(v):len(v)]
			}
			f.vals = vals
		}
	}
	// sensorAcc is only read by SensorStats, never by finish; skip it.
	return c
}

// runOpen closes dangling frames at the newest timestamp seen: abnormal
// termination for a finished run, still-running functions for a snapshot
// or a mark.
func (b *Builder) runOpen() {
	for _, l := range b.core.Lanes() {
		for _, fr := range l.Stack {
			b.insert(fr.Fid, Interval{Start: fr.Enter, End: b.duration})
		}
	}
}

// total is one function's time so far: what was spilled and what is
// resident.
func (b *Builder) total(fid int) time.Duration {
	return b.folded[fid].spilled + TotalDuration(b.funcs[fid].intervals)
}

// finish materialises the profile of [lo, hi] from accumulated state.
func (b *Builder) finish(lo, hi *Mark) (*NodeProfile, error) {
	if b.err != nil {
		return nil, b.err
	}
	// The samples no Fold has settled — all of them, on a builder nobody
	// folded — are due now. They are settled in stages: a mark no Fold has
	// sealed is sealed here, on a copy, once the samples stamped up to it
	// are in, and what lies past hi is not needed at all.
	b.runOpen()
	type stage struct {
		due  [][]Sample
		seal *Mark
	}
	var stages []stage
	rest := b.due(math.MaxInt64)
	sealed := func(m *Mark) *Mark {
		if m == nil || m.sealed {
			return m
		}
		c := *m
		c.seal(len(b.funcs), len(b.samples))
		st := stage{seal: &c}
		st.due, rest = splitDue(rest, m.T)
		stages = append(stages, st)
		return &c
	}
	lo, hi = sealed(lo), sealed(hi)
	whole := lo == nil && hi == nil
	from, to := between(lo, hi, b.duration)
	dropped := b.dropped
	if hi == nil {
		stages = append(stages, stage{due: rest})
	} else {
		dropped = hi.dropped
	}
	if lo != nil {
		dropped -= lo.dropped
	}

	np := &NodeProfile{
		NodeID:        b.nodeID,
		Unit:          b.opts.Unit,
		Truncated:     b.truncated,
		Duration:      to,
		DroppedEvents: dropped,
		HealthEvents:  b.health,
	}
	sort.SliceStable(np.HealthEvents, func(i, j int) bool {
		return np.HealthEvents[i].TS < np.HealthEvents[j].TS
	})
	if !whole {
		h := np.HealthEvents
		h = h[sort.Search(len(h), func(i int) bool { return h[i].TS > from }):]
		np.HealthEvents = h[:sort.Search(len(h), func(i int) bool { return h[i].TS > to })]
	}

	np.SensorNames = make([]string, b.maxSensor+1)
	for i := range np.SensorNames {
		if label, ok := b.sensorNames[i]; ok {
			np.SensorNames[i] = label
		} else {
			np.SensorNames[i] = fmt.Sprintf("sensor%d", i+1)
		}
	}
	// Summarise — batch Parse's final pass, from the same lists whether
	// Fold or finish filled them, so streamed, folded and batch profiles
	// are bit-for-bit equal.
	for fid := range b.funcs {
		f := &b.funcs[fid]
		if f.calls == 0 {
			continue // never entered: no span, closed or left open
		}
		// The walk over the span list comes first: it leaves the list in
		// cache for the searches that settle the samples.
		end := markFunc{total: b.total(fid), calls: f.calls}
		for _, st := range stages {
			b.settle(uint32(fid), st.due)
			if st.seal != nil {
				st.seal.sealFunc(fid, b.folded[fid].vals)
			}
		}
		if hi != nil {
			end = hi.fn(fid)
		}
		begin := lo.fn(fid)
		fp := FuncProfile{
			TotalTime: end.total - begin.total,
			Calls:     end.calls - begin.calls,
			Sensors:   make([]stats.Summary, b.maxSensor+1),
		}
		var err error
		if fp.Name, err = b.core.Sym().Name(uint32(fid)); err != nil {
			return nil, err
		}
		if whole {
			fp.Intervals = f.intervals
		}
		for sid, vals := range b.folded[fid].vals {
			if hi != nil {
				vals = vals[:hi.at(fid, sid)]
			}
			if vals = vals[lo.at(fid, sid):]; len(vals) == 0 {
				continue
			}
			sum, err := stats.Summarize(vals)
			if err != nil {
				return nil, err
			}
			fp.Sensors[sid] = sum
			fp.Significant = true // if it ran long enough, decided below
		}
		if fp.Calls == 0 && fp.TotalTime == 0 && !fp.Significant {
			continue // neither entered nor open in the range
		}
		np.Functions = append(np.Functions, fp)
	}

	// The series in time order as a whole (they already are, unless a
	// sample was late) — after the loop above, whose due samples are
	// slices of them.
	np.Samples = make([][]Sample, b.maxSensor+1)
	copy(np.Samples, b.samples)
	for sid, s := range np.Samples {
		sort.SliceStable(s, func(i, j int) bool { return s[i].TS < s[j].TS })
		if !whole {
			np.Samples[sid] = s[upTo(s, from):upTo(s, to)]
		}
	}
	np.SampleInterval = detectInterval(np.Samples, np.HealthEvents)
	for i := range np.Functions {
		f := &np.Functions[i]
		f.Significant = f.Significant && f.TotalTime >= np.SampleInterval
	}
	sort.Slice(np.Functions, func(i, j int) bool {
		if np.Functions[i].TotalTime != np.Functions[j].TotalTime {
			return np.Functions[i].TotalTime > np.Functions[j].TotalTime
		}
		return np.Functions[i].Name < np.Functions[j].Name
	})
	return np, nil
}

// errNilTrace is Parse's guard, shared with the streaming entry points.
var errNilTrace = errors.New("parser: nil trace")
