package trace

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tempest/internal/vclock"
)

// Config configures a Tracer.
type Config struct {
	// Clock timestamps events; required.
	Clock vclock.Clock
	// NodeID identifies this trace's origin in the cluster. A tracer's
	// traces are rank 0.
	NodeID uint32
	// LaneBufferCap bounds each lane's event buffer. When full, further
	// events on that lane are dropped and counted — the paper's §3.3
	// warning about functions with very short life spans maps to buffer
	// pressure here. 0 defaults to 1<<16.
	LaneBufferCap int
}

// Tracer records events for one process (one MPI rank). Lanes — one per
// goroutine — record without shared locks; the tracer aggregates them at
// snapshot time. Create lanes with NewLane; samples and markers without a
// lane go through the tracer's built-in lane 0.
type Tracer struct {
	cfg     Config
	symtab  *SymTab
	origin  time.Duration // clock reading at construction
	mu      sync.Mutex
	lanes   []*Lane
	lane0   *Lane
	dropped atomic.Uint64
}

// Lane is a single execution lane's event stream plus its shadow call
// stack. Enter/Exit must be called from a single goroutine at a time; the
// buffer itself is lock-protected so Snapshot can run concurrently. The
// shadow stack is pushed and popped inside the same critical section as
// the event it belongs to, so a lane handed from a finished goroutine to
// its successor (instrument reuses lanes that way) carries a
// happens-before edge with it. A lane's timestamps never decrease: every
// event is clamped to the newest one the lane has recorded, across
// drains.
type Lane struct {
	tracer *Tracer
	id     uint32
	mu     sync.Mutex
	buf    []Event // guarded by mu
	cap    int
	hw     int           // guarded by mu; high-water mark of len(buf)
	last   time.Duration // guarded by mu; newest timestamp recorded, the clamp's floor
	stack  []frame       // written under mu; Depth reads it from the owning goroutine
	drops  uint64        // guarded by mu; pending drop count to fold into the next recorded event
	events uint64        // guarded by mu; events recorded, summed by Tracer.EventCount
}

// frame is one open function on a lane's shadow stack: its id and the
// (clamped) timestamp of its enter event.
type frame struct {
	fid uint32
	ts  time.Duration
}

// ErrStackMismatch is returned by Exit when the exiting function does not
// match the top of the shadow stack (unbalanced instrumentation).
var ErrStackMismatch = errors.New("trace: exit does not match entered function")

// ErrStackEmpty is returned by Exit with no open function.
var ErrStackEmpty = errors.New("trace: exit with empty call stack")

// NewTracer builds a tracer. It returns an error if the clock is missing
// or the buffer capacity is negative.
func NewTracer(cfg Config) (*Tracer, error) {
	if cfg.Clock == nil {
		return nil, errors.New("trace: Config.Clock is required")
	}
	if cfg.LaneBufferCap < 0 {
		return nil, fmt.Errorf("trace: negative LaneBufferCap %d", cfg.LaneBufferCap)
	}
	if cfg.LaneBufferCap == 0 {
		cfg.LaneBufferCap = 1 << 16
	}
	t := &Tracer{cfg: cfg, symtab: NewSymTab(), origin: cfg.Clock.Now()}
	t.lane0 = t.NewLane() // lane 0: tracer-level samples and markers
	return t, nil
}

// RegisterFunc interns a function name, returning its id for Enter/Exit.
func (t *Tracer) RegisterFunc(name string) uint32 { return t.symtab.Register(name) }

// SymTab exposes the tracer's symbol table.
func (t *Tracer) SymTab() *SymTab { return t.symtab }

// NodeID returns the configured node id.
func (t *Tracer) NodeID() uint32 { return t.cfg.NodeID }

// NewLane allocates an execution lane. The tracer never frees a lane, so
// callers keep the count bounded: a hand-instrumented program creates one
// per worker goroutine, and instrument hands a finished goroutine's lane
// to the next goroutine the runtime starts on the same g, which bounds
// its lanes by the peak number of goroutines alive at once.
func (t *Tracer) NewLane() *Lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &Lane{tracer: t, id: uint32(len(t.lanes)), cap: t.cfg.LaneBufferCap}
	t.lanes = append(t.lanes, l)
	return l
}

// laneList copies the lane table so callers can lock lanes one at a time
// without holding t.mu.
func (t *Tracer) laneList() []*Lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Lane(nil), t.lanes...)
}

// now returns the trace-relative timestamp.
func (t *Tracer) now() time.Duration { return t.cfg.Clock.Now() - t.origin }

// Now exposes the trace-relative clock: instrumentation runtimes that
// keep their own cheap accounting (coarse sampling buckets) timestamp
// against the same origin the tracer's events use.
func (t *Tracer) Now() time.Duration { return t.now() }

// record clamps e's timestamp and appends it to the lane buffer,
// dropping (with accounting) when full.
func (l *Lane) record(e Event) {
	l.mu.Lock()
	e.TS = l.clampLocked(e.TS)
	l.recordLocked(e)
	l.mu.Unlock()
}

// clampLocked holds ts to the newest timestamp the lane has recorded, and
// makes the result the new floor. The floor outlives Drain, so an event
// is never stamped before one an earlier drain already took. Virtual
// clocks regress on simulation bugs and a cycle counter by a few ns when
// a goroutine moves to another core; either way the trace stays
// well-formed for the codec and an exit never precedes its enter.
// Callers hold l.mu.
func (l *Lane) clampLocked(ts time.Duration) time.Duration {
	if ts < l.last {
		return l.last
	}
	l.last = ts
	return ts
}

// recordLocked appends an already clamped event. Callers hold l.mu.
func (l *Lane) recordLocked(e Event) {
	if len(l.buf) >= l.cap {
		l.drops++
		l.tracer.dropped.Add(1)
		return
	}
	if l.drops > 0 {
		// Fold the pending drop count in as a synthetic event if there is
		// room for both; otherwise keep accumulating.
		if len(l.buf)+1 >= l.cap {
			l.drops++
			l.tracer.dropped.Add(1)
			return
		}
		l.buf = append(l.buf, Event{
			TS:   e.TS,
			Lane: l.id,
			Kind: KindDrop,
			Aux:  l.drops,
		})
		l.drops = 0
	}
	l.buf = append(l.buf, e)
	if len(l.buf) > l.hw {
		l.hw = len(l.buf)
	}
	l.events++
}

// LaneHighWater reports the deepest any lane's buffer has ever been —
// how close the run came to the LaneBufferCap drop threshold.
func (t *Tracer) LaneHighWater() int {
	hw := 0
	for _, l := range t.laneList() {
		l.mu.Lock()
		if l.hw > hw {
			hw = l.hw
		}
		l.mu.Unlock()
	}
	return hw
}

// Enter records entry into function fid and pushes the shadow stack.
func (l *Lane) Enter(fid uint32) {
	ts := l.tracer.now()
	l.mu.Lock()
	l.enterLocked(fid, ts)
	l.mu.Unlock()
}

// Exit records exit from function fid, popping the shadow stack. It
// returns ErrStackEmpty or ErrStackMismatch on unbalanced use; the event
// is still recorded so the parser can flag the anomaly.
func (l *Lane) Exit(fid uint32) error {
	ts := l.tracer.now()
	l.mu.Lock()
	_, err := l.exitLocked(fid, ts)
	l.mu.Unlock()
	return err
}

// enterLocked pushes the shadow stack and records the enter event at ts.
func (l *Lane) enterLocked(fid uint32, ts time.Duration) {
	ts = l.clampLocked(ts)
	l.stack = append(l.stack, frame{fid: fid, ts: ts})
	l.recordLocked(Event{TS: ts, Lane: l.id, Kind: KindEnter, FuncID: fid})
}

// exitLocked records the exit event at ts and pops the shadow stack,
// returning when the popped frame was entered (the exit's own clamped
// timestamp when the stack was empty).
func (l *Lane) exitLocked(fid uint32, ts time.Duration) (time.Duration, error) {
	ts = l.clampLocked(ts)
	l.recordLocked(Event{TS: ts, Lane: l.id, Kind: KindExit, FuncID: fid})
	if len(l.stack) == 0 {
		return ts, ErrStackEmpty
	}
	top := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	if top.fid != fid {
		return top.ts, fmt.Errorf("%w: entered id %d, exiting id %d", ErrStackMismatch, top.fid, fid)
	}
	return top.ts, nil
}

// Instrument wraps fn with Enter/Exit — the Go equivalent of compiling
// one function with -finstrument-functions.
func (l *Lane) Instrument(name string, fn func()) error {
	fid := l.tracer.RegisterFunc(name)
	l.Enter(fid)
	defer func() {
		// Record the exit even when fn panics, then re-panic so the
		// caller sees the original failure.
		if r := recover(); r != nil {
			_ = l.Exit(fid)
			panic(r)
		}
	}()
	fn()
	return l.Exit(fid)
}

// Sample records a temperature reading (°C) for sensor sid on lane 0; the
// tempd daemon is its only expected caller.
func (t *Tracer) Sample(sid uint32, tempC float64) {
	t.lane0.record(Event{TS: t.now(), Lane: 0, Kind: KindSample, SensorID: sid, ValueC: tempC})
}

// Marker records an annotation on lane 0.
func (t *Tracer) Marker(name string) {
	fid := t.RegisterFunc(name)
	t.lane0.record(Event{TS: t.now(), Lane: 0, Kind: KindMarker, FuncID: fid})
}

// EventCount reports successfully recorded events. The count lives on
// each lane, under the lock record already holds, so lanes on different
// cores share no counter cache line; summing them here is the rare side.
func (t *Tracer) EventCount() uint64 {
	var n uint64
	for _, l := range t.laneList() {
		l.mu.Lock()
		n += l.events
		l.mu.Unlock()
	}
	return n
}

// DroppedCount reports events lost to buffer pressure.
func (t *Tracer) DroppedCount() uint64 { return t.dropped.Load() }

// Snapshot merges all lanes into a single timestamp-ordered event slice
// plus a consistent copy of the symbol table. Lanes continue recording;
// the snapshot is a stable copy. Events with equal timestamps keep
// lane-id order, making snapshots deterministic under a virtual clock.
func (t *Tracer) Snapshot() ([]Event, *SymTab) {
	var all []Event
	for _, l := range t.laneList() {
		l.mu.Lock()
		all = append(all, l.buf...)
		l.mu.Unlock()
	}
	sortEvents(all)
	return all, t.symtab.clone()
}

// Drain removes and returns all currently buffered events, merged and
// timestamp-ordered like Snapshot, together with a symbol-table copy.
// Unlike Snapshot it empties the lane buffers, so an incremental Writer
// can flush the trace in segments while recording continues — buffer
// pressure (and KindDrop events) resets with every drain. A lane that
// recorded since the last drain keeps its buffer's capacity (at most
// LaneBufferCap events), so a busy lane does not regrow it by doubling
// every interval; a lane that recorded nothing gives the memory back.
func (t *Tracer) Drain() ([]Event, *SymTab) {
	var all []Event
	for _, l := range t.laneList() {
		l.mu.Lock()
		all = append(all, l.buf...)
		if len(l.buf) > 0 {
			l.buf = l.buf[:0]
		} else {
			l.buf = nil
		}
		l.mu.Unlock()
	}
	sortEvents(all)
	return all, t.symtab.clone()
}

// Trace bundles everything the parser needs from one rank's run.
type Trace struct {
	NodeID uint32
	Rank   uint32
	Events []Event
	Sym    *SymTab
	// Truncated reports that the trace was recovered from a torn or
	// corrupt segmented stream: Events holds the salvaged intact prefix
	// (see ReadTrace), not necessarily the full run.
	Truncated bool
}

// Finish produces the final Trace for this rank.
func (t *Tracer) Finish() *Trace {
	ev, sym := t.Snapshot()
	return &Trace{NodeID: t.cfg.NodeID, Events: ev, Sym: sym}
}
