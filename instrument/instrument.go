// Package instrument is the runtime half of Tempest's automatic
// source-level instrumentation — the Go stand-in for the paper's
// `gcc -finstrument-functions` entry/exit hooks.
//
// cmd/tempest-instrument rewrites a package so that every selected
// function begins with
//
//	defer instrument.Trace(tempestInstrSlots[i])()
//
// next to a generated registration block
//
//	var tempestInstrSlots = instrument.Register("pkg/path", []string{...})
//
// The package is inert until a profiling session attaches a tracer
// (LiveSession.EnableAutoInstrument, or Attach directly): before that,
// Trace is a single atomic load and a no-op closure, so instrumented
// binaries run unprofiled at negligible cost — the same property the
// paper gets from shipping separate instrumented builds, without the
// separate build.
//
// While attached, every function runs in one of three modes:
//
//   - ModeDetail records full enter/exit events on the calling
//     goroutine's lane (the paper's fine-grained path) and maintains
//     the coarse call/time bucket alongside.
//   - ModeCoarse skips the event stream entirely and only accumulates
//     a gprof-style bucket (call count + cumulative wall time) in two
//     atomics — cheap enough to leave on everywhere, and still enough
//     signal for a collector to rank candidates.
//   - ModeOff records nothing.
//
// Modes are set per function (SetFunctionMode) or as a process default
// (SetDefaultMode), and a full desired set arrives as a Directive from
// the fleet control plane (Apply). Toggling is lock-free on the Trace
// path: each slot carries one atomic mode word, so a collector can
// flip instrumentation density on a live, saturated workload.
//
// A detail-mode call allocates nothing: each slot's exit hook is built
// once, when a tracer is attached or the slot registered, and finds the
// goroutine's lane and the call's entry time again when it runs. A
// coarse-mode call allocates the closure it returns.
//
// Lanes are allocated per goroutine, matching the tracer's
// one-lane-per-worker model, so instrumented code may be freely
// concurrent. A goroutine is identified by the address of its runtime g
// (three instructions of assembly on amd64 and arm64). The runtime
// recycles a finished goroutine's g for a later one, and the lane goes
// with it, so a binding holds as many lanes as goroutines were ever alive
// at once, not as many as ever ran. Other architectures fall back to the
// goroutine id parsed from runtime.Stack: same semantics, microseconds
// per call, one lane per goroutine for good.
package instrument

import (
	"sort"
	"sync"
	"sync/atomic"

	"tempest/internal/trace"
)

// Mode selects how much an instrumented function records while a tracer
// is attached.
type Mode uint8

const (
	// ModeDetail records enter/exit events (full profile resolution)
	// and maintains the coarse bucket so ranking signals stay uniform
	// across modes.
	ModeDetail Mode = iota
	// ModeCoarse accumulates only a call-count/cumulative-time bucket.
	ModeCoarse
	// ModeOff records nothing for the function.
	ModeOff
)

// String renders the mode the way directives and status reports spell it.
func (m Mode) String() string {
	switch m {
	case ModeDetail:
		return "detail"
	case ModeCoarse:
		return "coarse"
	case ModeOff:
		return "off"
	}
	return "invalid"
}

// slotState is the per-function runtime cell. The mode word and bucket
// fields are atomics so Trace never takes a lock; everything else is
// immutable after Register.
type slotState struct {
	name string
	// mode is 0 when the slot inherits the process default, otherwise
	// Mode+1. One atomic load on the hot path resolves it.
	mode atomic.Uint32
	// Coarse bucket: calls and cumulative nanoseconds spent in the
	// function. Maintained in ModeCoarse and ModeDetail, flushed (and
	// zeroed) by FlushCoarse.
	calls atomic.Uint64
	nanos atomic.Int64
}

var (
	regMu sync.Mutex
	// names is the global slot table: Register appends, Attach interns
	// into the tracer's symbol table.
	names []string // guarded by regMu
	// slotIndex resolves a function name to its slot for directives.
	slotIndex = map[string]int{} // guarded by regMu
	// slots is the copy-on-write per-slot state table. Register swaps in
	// a grown copy; Trace reads it with one atomic load. Existing
	// *slotState cells are shared between copies, so mode words and
	// buckets survive growth.
	slots atomic.Pointer[[]*slotState]
	// defaultMode holds the Mode applied to slots without an override.
	defaultMode atomic.Uint32
	// appliedRev is the revision of the last Apply'd directive.
	appliedRev atomic.Uint64
	// active is the currently attached binding, nil when disabled.
	active atomic.Pointer[binding]
)

func init() {
	empty := []*slotState{}
	slots.Store(&empty)
}

// laneCacheBits sizes the direct-mapped lane cache: 512 entries, one
// pointer each, so a program with a few hundred tracing goroutines
// rarely has two of them share an entry.
const laneCacheBits = 9

// laneEntry is one goroutine's lane under its key. Entries are immutable
// and shared between the cache and the map behind it.
type laneEntry struct {
	key  uintptr
	lane *trace.Lane
}

// detailSlot is what ModeDetail needs of one slot under one binding: the
// tracer's function id, and the exit hook Trace hands out for it.
type detailSlot struct {
	fid  uint32
	exit func()
}

// binding connects the slot table to one tracer.
type binding struct {
	tracer *trace.Tracer
	// detail maps slot → function id and exit hook. Copy-on-write like
	// slots: extend (always under regMu) swaps in a grown copy, Trace
	// reads it with one atomic load.
	detail atomic.Pointer[[]detailSlot]
	// laneCache is the hot lookup: the entry last used at hash(key). On a
	// miss — first call, or two live goroutines sharing an entry — lanes
	// has the answer.
	laneCache [1 << laneCacheBits]atomic.Pointer[laneEntry]
	laneMu    sync.Mutex
	lanes     map[uintptr]*laneEntry // guarded by laneMu
}

// Register interns a package's instrumented function names and returns
// their slot indices. It is called from generated init-time code and is
// safe before, during and after Attach. Re-registering a name returns
// the existing slot.
func Register(pkgPath string, fnNames []string) []int {
	regMu.Lock()
	defer regMu.Unlock()
	old := *slots.Load()
	grown := make([]*slotState, len(old), len(old)+len(fnNames))
	copy(grown, old)
	out := make([]int, len(fnNames))
	for i, fn := range fnNames {
		if s, ok := slotIndex[fn]; ok {
			out[i] = s
			continue
		}
		slot := len(names)
		names = append(names, fn)
		slotIndex[fn] = slot
		grown = append(grown, &slotState{name: fn})
		out[i] = slot
	}
	slots.Store(&grown)
	if b := active.Load(); b != nil {
		b.extend(names)
	}
	return out
}

// Attach enables auto-instrumentation against tr. Any previously
// attached tracer is replaced. Passing nil detaches. Modes and coarse
// buckets are process state, not binding state: they survive
// detach/re-attach so a control plane's policy outlives a session
// bounce.
func Attach(tr *trace.Tracer) {
	if tr == nil {
		active.Store(nil)
		return
	}
	b := &binding{tracer: tr, lanes: map[uintptr]*laneEntry{}}
	regMu.Lock()
	b.extend(names)
	regMu.Unlock()
	active.Store(b)
}

// Detach disables auto-instrumentation if tr is the attached tracer
// (nil detaches unconditionally). Sessions call this on Close so a dying
// session never strands hooks pointing at a stopped tracer.
func Detach(tr *trace.Tracer) {
	b := active.Load()
	if b == nil {
		return
	}
	if tr == nil || b.tracer == tr {
		active.CompareAndSwap(b, nil)
	}
}

// Attached reports whether any tracer is currently bound.
func Attached() bool { return active.Load() != nil }

// extend interns every known name and publishes the grown slot table,
// building each new slot's exit hook once so Trace never allocates one.
// Callers hold regMu, which serializes writers and keeps names and slots
// the same length.
func (b *binding) extend(all []string) {
	var old []detailSlot
	if p := b.detail.Load(); p != nil {
		old = *p
	}
	tab := *slots.Load()
	grown := make([]detailSlot, len(old), len(all))
	copy(grown, old)
	for i := len(old); i < len(all); i++ {
		fid := b.tracer.RegisterFunc(all[i])
		grown = append(grown, detailSlot{fid: fid, exit: b.exitHook(fid, tab[i])})
	}
	b.detail.Store(&grown)
}

// exitHook is the exit half of a detail-mode call of function fid: it
// finds the calling goroutine's lane again, records the exit and books
// the call in st's coarse bucket, timed from the enter the lane's shadow
// stack pops.
func (b *binding) exitHook(fid uint32, st *slotState) func() {
	return func() {
		end := b.tracer.Now()
		start, _ := b.lane(laneKey()).ExitSpan(fid, end)
		st.calls.Add(1)
		st.nanos.Add(int64(max(end-start, 0)))
	}
}

// noop is returned when instrumentation is detached.
var noop = func() {}

// Trace is the injected prologue hook: it records function entry on the
// calling goroutine's lane and returns the matching exit hook for defer.
// With no tracer attached it costs one atomic load. With a tracer
// attached, the slot's mode decides the cost: ModeOff is three atomic
// loads and the shared no-op; ModeCoarse is two clock reads and two
// atomic adds; ModeDetail adds to that two lane lookups (one atomic load
// and a compare each on a cache hit) and the lane's enter/exit pair,
// each stamped with the clock reading the bucket takes. No mode takes a
// package-level lock. ModeDetail allocates nothing: it returns the
// slot's exit hook, built when the slot was bound, which takes the entry
// time back from the lane. ModeCoarse allocates the closure it returns.
func Trace(slot int) func() {
	b := active.Load()
	if b == nil {
		return noop
	}
	tab := *slots.Load()
	if slot < 0 || slot >= len(tab) {
		return noop
	}
	st := tab[slot]
	m := st.mode.Load()
	var mode Mode
	if m == 0 {
		mode = Mode(defaultMode.Load())
	} else {
		mode = Mode(m - 1)
	}
	switch mode {
	case ModeOff:
		return noop
	case ModeCoarse:
		start := b.tracer.Now()
		return func() {
			st.calls.Add(1)
			st.nanos.Add(int64(b.tracer.Now() - start))
		}
	}
	// ModeDetail (and any unknown mode value, defensively).
	detail := *b.detail.Load()
	if slot >= len(detail) {
		return noop
	}
	d := &detail[slot]
	lane := b.lane(laneKey())
	// Balanced by construction: the returned hook is the Exit and
	// callers defer it.
	lane.EnterAt(d.fid, b.tracer.Now()) //tempest:ignore enterexit
	return d.exit
}

// SetDefaultMode sets the mode for every instrumented function without
// an explicit override.
func SetDefaultMode(m Mode) { defaultMode.Store(uint32(m)) }

// DefaultMode reports the current process-wide default mode.
func DefaultMode() Mode { return Mode(defaultMode.Load()) }

// SetFunctionMode overrides one function's mode by name. It reports
// whether the name is registered; unknown names are a no-op (the
// function may live in a package this binary doesn't link).
func SetFunctionMode(name string, m Mode) bool {
	regMu.Lock()
	slot, ok := slotIndex[name]
	regMu.Unlock()
	if !ok {
		return false
	}
	tab := *slots.Load()
	tab[slot].mode.Store(uint32(m) + 1)
	return true
}

// ClearFunctionMode removes a function's override so it inherits the
// default again. It reports whether the name is registered.
func ClearFunctionMode(name string) bool {
	regMu.Lock()
	slot, ok := slotIndex[name]
	regMu.Unlock()
	if !ok {
		return false
	}
	tab := *slots.Load()
	tab[slot].mode.Store(0)
	return true
}

// FuncMode is one function's entry in a Directive or Status.
type FuncMode struct {
	Name string `json:"name"`
	Mode Mode   `json:"mode"`
}

// Directive is a full desired instrumentation set, as issued by a
// collector's policy engine. Rev orders directives: the control plane
// re-sends full sets (never deltas) so applying the latest revision is
// always correct regardless of loss, duplication or reordering on the
// way here.
type Directive struct {
	// Rev is the policy revision, monotonically increasing per node.
	Rev uint64 `json:"rev"`
	// Default is the mode for every function not listed in Funcs.
	Default Mode `json:"default"`
	// Funcs lists explicit per-function overrides by symbol name.
	Funcs []FuncMode `json:"funcs,omitempty"`
}

// Apply installs a full desired set: the default mode is replaced, every
// listed function gets an explicit override, and every other override is
// cleared. Unknown names are ignored. Revisions at or below the last
// applied revision are skipped (stale directive), except Rev 0 which is
// always applied (local/manual control without a revision sequence).
// It reports whether the directive was applied.
func Apply(d Directive) bool {
	if d.Rev != 0 {
		for {
			last := appliedRev.Load()
			if d.Rev <= last {
				return false
			}
			if appliedRev.CompareAndSwap(last, d.Rev) {
				break
			}
		}
	}
	want := make(map[string]Mode, len(d.Funcs))
	for _, f := range d.Funcs {
		want[f.Name] = f.Mode
	}
	defaultMode.Store(uint32(d.Default))
	tab := *slots.Load()
	for _, st := range tab {
		if m, ok := want[st.name]; ok {
			st.mode.Store(uint32(m) + 1)
		} else {
			st.mode.Store(0)
		}
	}
	return true
}

// AppliedRev reports the revision of the last applied directive.
func AppliedRev() uint64 { return appliedRev.Load() }

// CoarseStat is one flushed coarse bucket: how often a function ran and
// how long it spent, since the previous flush.
type CoarseStat struct {
	Name  string `json:"name"`
	Calls uint64 `json:"calls"`
	Nanos int64  `json:"nanos"`
}

// FlushCoarse drains every non-empty coarse bucket and resets it,
// returning per-function deltas since the previous flush in slot order.
// The live session calls this each drain tick and ships the report to
// the collector, where it feeds candidate ranking for functions that
// aren't detail-instrumented.
func FlushCoarse() []CoarseStat {
	tab := *slots.Load()
	var out []CoarseStat
	for _, st := range tab {
		calls := st.calls.Swap(0)
		nanos := st.nanos.Swap(0)
		if calls == 0 && nanos == 0 {
			continue
		}
		out = append(out, CoarseStat{Name: st.name, Calls: calls, Nanos: nanos})
	}
	return out
}

// Status is a snapshot of the runtime's instrumentation policy.
type Status struct {
	// Rev is the last applied directive revision.
	Rev uint64 `json:"rev"`
	// Default is the process-wide default mode.
	Default Mode `json:"default"`
	// Registered counts known instrumented functions.
	Registered int `json:"registered"`
	// Overrides lists functions with explicit per-function modes,
	// sorted by name.
	Overrides []FuncMode `json:"overrides,omitempty"`
}

// Current reports the runtime's instrumentation policy: the default
// mode and every explicit per-function override.
func Current() Status {
	tab := *slots.Load()
	s := Status{
		Rev:        appliedRev.Load(),
		Default:    Mode(defaultMode.Load()),
		Registered: len(tab),
	}
	for _, st := range tab {
		if m := st.mode.Load(); m != 0 {
			s.Overrides = append(s.Overrides, FuncMode{Name: st.name, Mode: Mode(m - 1)})
		}
	}
	sort.Slice(s.Overrides, func(i, j int) bool { return s.Overrides[i].Name < s.Overrides[j].Name })
	return s
}

// lane returns the lane of the goroutine identified by key, allocating
// one the first time the key is seen. A key seen before may by now belong
// to a new goroutine running on a recycled g; it inherits the lane, which
// is sound because the previous owner's deferred exit hooks ran before it
// ended and left the lane's shadow stack balanced.
func (b *binding) lane(key uintptr) *trace.Lane {
	// Fibonacci hashing: g addresses differ mostly in their middle bits.
	cached := &b.laneCache[(uint64(key)*0x9E3779B97F4A7C15)>>(64-laneCacheBits)]
	if e := cached.Load(); e != nil && e.key == key {
		return e.lane
	}
	b.laneMu.Lock()
	e := b.lanes[key]
	if e == nil {
		e = &laneEntry{key: key, lane: b.tracer.NewLane()}
		b.lanes[key] = e
	}
	b.laneMu.Unlock()
	cached.Store(e)
	return e.lane
}
