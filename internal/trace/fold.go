package trace

import "time"

// Fold is the event-fold core: the one place a node's event stream is
// matched against per-lane shadow stacks (DESIGN.md §16). It owns the
// lane table and each lane's open invocations and decides nothing about
// what a match means: Step turns an event into a Fact, and the analyses —
// parser.Builder, critpath.Analyzer — consume facts, keeping their own
// state in flat tables indexed by FuncID and FoldLane.Index. Whoever owns
// a Fold steps it once per event and hands the fact to every consumer.
//
// Strict versus tolerant is the consumer's choice: an exit that matches
// nothing leaves the stack alone (FactUnmatched), a function id outside
// the symbol table is matched like any other and flagged Unknown.
//
// Heap is bounded by what a stream contains, not by the ids it names:
// FuncID-indexed tables stop at NumSyms, lane ids below foldDenseLanes
// index a slice (Tracer.NewLane hands ids out densely from zero), any
// other id goes to a map. Not safe for concurrent use.
type Fold struct {
	sym   *SymTab
	nsyms uint32 // sym.Len() as last read; re-read when an id falls outside it

	dense []*FoldLane          // by lane id, ids below foldDenseLanes
	spill map[uint32]*FoldLane // every other lane id
	lanes []*FoldLane          // by FoldLane.Index
}

// foldDenseLanes bounds the lane table indexed directly by lane id
// (8 KiB of pointers per node at most).
const foldDenseLanes = 1024

// Frame is one open function invocation on a lane's shadow stack.
type Frame struct {
	Fid   uint32
	Enter time.Duration
}

// FoldLane is one lane's state in the core. Consumers read it and key
// their own per-lane state by Index; only Step writes it.
type FoldLane struct {
	ID    uint32
	Index int     // dense, in order of first appearance
	Stack []Frame // open invocations, outermost first
}

// FactKind says what an event did to its lane's stack.
type FactKind uint8

const (
	// FactOther: a marker, sample or drop — no stack effect, Lane is nil.
	FactOther FactKind = iota
	// FactOpened: an enter, now the top frame of Lane.
	FactOpened
	// FactClosed: an exit that matched Lane's top frame, now popped; Enter
	// is when that frame opened and Lane.Stack ends at the new top.
	FactClosed
	// FactUnmatched: an exit with an empty stack or another function on
	// top. The stack is untouched.
	FactUnmatched
)

// Fact is what the core learned from one event.
type Fact struct {
	Kind FactKind
	// Unknown marks an enter or exit whose FuncID is outside the symbol
	// table: consumers must not index a table with it.
	Unknown bool
	Lane    *FoldLane
	Enter   time.Duration
}

// NewFold returns an empty core resolving function ids in sym (nil: an
// empty table, so every enter and exit is Unknown).
func NewFold(sym *SymTab) *Fold {
	f := &Fold{}
	f.SetSym(sym)
	return f
}

// SetSym rebinds the core to a later copy of the same append-only symbol
// table (Tracer.Drain hands out a fresh clone per batch). Ids already on
// the stacks keep their meaning.
func (f *Fold) SetSym(sym *SymTab) {
	if sym == nil {
		sym = NewSymTab()
	}
	f.sym, f.nsyms = sym, uint32(sym.Len())
}

// Sym returns the symbol table function ids resolve in.
func (f *Fold) Sym() *SymTab { return f.sym }

// NumSyms is how many function ids the core has seen the symbol table
// hold — the bound for a consumer's FuncID-indexed table.
func (f *Fold) NumSyms() int { return int(f.nsyms) }

// Lanes returns every lane seen, in order of first appearance. The slice
// and the lanes are the core's own: read only.
func (f *Fold) Lanes() []*FoldLane { return f.lanes }

// Step matches one event against its lane's stack.
func (f *Fold) Step(e *Event) Fact {
	if e.Kind != KindEnter && e.Kind != KindExit {
		return Fact{}
	}
	m := Fact{Kind: FactOpened, Lane: f.lane(e.Lane)}
	if e.FuncID >= f.nsyms {
		// The table only grows: look again before calling the id unknown.
		f.nsyms = uint32(f.sym.Len())
		m.Unknown = e.FuncID >= f.nsyms
	}
	st := m.Lane.Stack
	switch n := len(st); {
	case e.Kind == KindEnter:
		m.Lane.Stack = append(st, Frame{Fid: e.FuncID, Enter: e.TS})
	case n > 0 && st[n-1].Fid == e.FuncID:
		m.Kind, m.Enter = FactClosed, st[n-1].Enter
		m.Lane.Stack = st[:n-1]
	default:
		m.Kind = FactUnmatched
	}
	return m
}

// lane returns (creating if needed) the state for one lane id.
func (f *Fold) lane(id uint32) *FoldLane {
	if int(id) < len(f.dense) && f.dense[id] != nil {
		return f.dense[id]
	}
	l := f.spill[id]
	if l != nil {
		return l
	}
	l = &FoldLane{ID: id, Index: len(f.lanes)}
	f.lanes = append(f.lanes, l)
	if id >= foldDenseLanes {
		if f.spill == nil {
			f.spill = map[uint32]*FoldLane{}
		}
		f.spill[id] = l
		return l
	}
	for len(f.dense) <= int(id) {
		f.dense = append(f.dense, nil)
	}
	f.dense[id] = l
	return l
}
