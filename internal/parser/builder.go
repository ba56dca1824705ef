package parser

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"tempest/internal/stats"
	"tempest/internal/trace"
)

// funcState is one function's accumulated profile state, indexed by
// FuncID.
type funcState struct {
	intervals []Interval // merged inclusive spans
	calls     int64
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
// the whole event slice plus one raw interval per call.
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
	samples     [][]Sample           // per sensor id, arrival order
	sensorAcc   []*stats.Accumulator // per sensor id, O(1) streaming stats

	funcs []funcState // by FuncID; never longer than the symbol table

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

// Events reports how many events have been consumed.
func (b *Builder) Events() uint64 { return b.events }

// Duration reports the largest timestamp seen so far.
func (b *Builder) Duration() time.Duration { return b.duration }

// Err returns the structural error that poisoned the builder, if any.
func (b *Builder) Err() error { return b.err }

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
		b.funcs = append(b.funcs, make([]funcState, b.core.NumSyms()-len(b.funcs))...)
	}
	return &b.funcs[fid]
}

func (b *Builder) apply(e *trace.Event, m trace.Fact) error {
	if e.TS > b.duration {
		b.duration = e.TS
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
			f := b.fn(e.FuncID)
			f.intervals = InsertInterval(f.intervals, Interval{Start: m.Enter, End: e.TS})
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
	return b.finish()
}

// Snapshot produces an in-progress NodeProfile without consuming the
// builder: open frames are treated as running until the latest event
// seen, exactly how Finish treats a crashed run's dangling frames. The
// builder keeps accumulating afterwards.
func (b *Builder) Snapshot() (*NodeProfile, error) {
	return b.clone().finish()
}

// clone deep-copies the builder state that finish mutates or retains.
// The core is shared: finish only reads its stacks.
func (b *Builder) clone() *Builder {
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

		sensorNames: make(map[int]string, len(b.sensorNames)),
		health:      append([]HealthEvent(nil), b.health...),
		samples:     make([][]Sample, len(b.samples)),
		funcs:       make([]funcState, len(b.funcs)),
	}
	for k, v := range b.sensorNames {
		c.sensorNames[k] = v
	}
	for i, s := range b.samples {
		c.samples[i] = append([]Sample(nil), s...)
	}
	for fid, f := range b.funcs {
		c.funcs[fid] = funcState{intervals: append([]Interval(nil), f.intervals...), calls: f.calls}
	}
	// sensorAcc is only read by SensorStats, never by finish; skip it.
	return c
}

// finish materialises the profile from accumulated state.
func (b *Builder) finish() (*NodeProfile, error) {
	if b.err != nil {
		return nil, b.err
	}
	np := &NodeProfile{
		NodeID:        b.nodeID,
		Unit:          b.opts.Unit,
		Truncated:     b.truncated,
		Duration:      b.duration,
		DroppedEvents: b.dropped,
		HealthEvents:  b.health,
	}
	sort.SliceStable(np.HealthEvents, func(i, j int) bool {
		return np.HealthEvents[i].TS < np.HealthEvents[j].TS
	})

	np.SensorNames = make([]string, b.maxSensor+1)
	for i := range np.SensorNames {
		if label, ok := b.sensorNames[i]; ok {
			np.SensorNames[i] = label
		} else {
			np.SensorNames[i] = fmt.Sprintf("sensor%d", i+1)
		}
	}
	np.Samples = make([][]Sample, b.maxSensor+1)
	copy(np.Samples, b.samples)
	for _, s := range np.Samples {
		sort.SliceStable(s, func(i, j int) bool { return s[i].TS < s[j].TS })
	}

	np.SampleInterval = b.opts.SampleInterval
	if np.SampleInterval == 0 {
		np.SampleInterval = detectInterval(np.Samples, np.HealthEvents)
	}

	// Close dangling frames at trace end (abnormal termination for a
	// finished run; still-running functions for a snapshot).
	for _, l := range b.core.Lanes() {
		for _, fr := range l.Stack {
			f := b.fn(fr.Fid)
			f.intervals = InsertInterval(f.intervals, Interval{Start: fr.Enter, End: b.duration})
		}
	}

	// Attribute samples and summarise — identical to batch Parse's final
	// pass, so streamed and batch profiles are bit-for-bit equal.
	for fid := range b.funcs {
		merged := b.funcs[fid].intervals
		if len(merged) == 0 {
			continue // never closed, never left open
		}
		name, err := b.core.Sym().Name(uint32(fid))
		if err != nil {
			return nil, err
		}
		fp := FuncProfile{
			Name:      name,
			TotalTime: TotalDuration(merged),
			Calls:     b.funcs[fid].calls,
			Intervals: merged,
			Sensors:   make([]stats.Summary, b.maxSensor+1),
		}
		anySamples := false
		for sid, samples := range np.Samples {
			var vals []float64
			for _, s := range samples {
				if CoversAny(merged, s.TS) {
					vals = append(vals, s.Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			sum, err := stats.Summarize(vals)
			if err != nil {
				return nil, err
			}
			fp.Sensors[sid] = sum
			anySamples = true
		}
		fp.Significant = anySamples && fp.TotalTime >= np.SampleInterval
		np.Functions = append(np.Functions, fp)
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
