package trace

import (
	"runtime"
	"testing"
	"time"
)

func TestFoldFacts(t *testing.T) {
	sym := NewSymTab()
	a, b := sym.Register("a"), sym.Register("b")
	f := NewFold(sym)
	step := func(kind EventKind, lane, fid uint32, ts time.Duration) Fact {
		return f.Step(&Event{Kind: kind, Lane: lane, FuncID: fid, TS: ts})
	}

	if m := step(KindExit, 3, a, 1); m.Kind != FactUnmatched || m.Lane == nil || m.Lane.ID != 3 || len(m.Lane.Stack) != 0 {
		t.Fatalf("orphan exit = %+v, want unmatched on a now-known empty lane 3", m)
	}
	if m := step(KindEnter, 0, a, 2); m.Kind != FactOpened || m.Unknown || m.Lane.ID != 0 || m.Lane.Index != 1 {
		t.Fatalf("enter = %+v, want opened on lane 0, the second lane seen", m)
	}
	step(KindEnter, 0, b, 3)
	if m := step(KindExit, 0, a, 4); m.Kind != FactUnmatched || len(m.Lane.Stack) != 2 {
		t.Fatalf("mismatched exit = %+v, want unmatched with both frames still open", m)
	}
	if m := step(KindExit, 0, b, 5); m.Kind != FactClosed || m.Enter != 3 || len(m.Lane.Stack) != 1 || m.Lane.Stack[0] != (Frame{Fid: a, Enter: 2}) {
		t.Fatalf("exit = %+v, want b closed (entered at 3) with a as the new top", m)
	}
	for _, kind := range []EventKind{KindMarker, KindSample, KindDrop} {
		if m := step(kind, 0, a, 6); m != (Fact{}) {
			t.Fatalf("%s = %+v, want no stack effect", kind, m)
		}
	}

	// Outside the table: matched like any id, flagged. Inside once the
	// table has grown, with no call to tell the core so.
	if m := step(KindEnter, 1, 2, 7); m.Kind != FactOpened || !m.Unknown {
		t.Fatalf("enter of unregistered id = %+v, want opened and unknown", m)
	}
	if f.NumSyms() != 2 {
		t.Fatalf("NumSyms = %d, want 2", f.NumSyms())
	}
	c := sym.Register("c")
	if m := step(KindExit, 1, c, 8); m.Kind != FactClosed || m.Unknown || f.NumSyms() != 3 {
		t.Fatalf("exit after the table grew = %+v (NumSyms %d), want closed, known, 3", m, f.NumSyms())
	}

	// A later copy of the table (Tracer.Drain clones per batch) rebinds
	// without disturbing what is open.
	f.SetSym(sym.clone())
	if m := step(KindExit, 0, a, 9); m.Kind != FactClosed || m.Enter != 2 {
		t.Fatalf("exit after SetSym = %+v, want a closed", m)
	}
	if lanes := f.Lanes(); len(lanes) != 3 || lanes[0].ID != 3 || lanes[1].ID != 0 || lanes[2].ID != 1 {
		t.Fatalf("Lanes() = %v, want ids 3, 0, 1 in order of appearance", lanes)
	}

	if m := NewFold(nil).Step(&Event{Kind: KindEnter}); !m.Unknown {
		t.Fatalf("enter against a nil table = %+v, want unknown", m)
	}
}

// TestFoldLaneTableBoundedByDistinctLanes is the hostile-input bound: a
// lane id is wire input, so it must never size an allocation. One event
// on lane 1<<31 and 10⁵ distinct ids scattered over the whole uint32
// range cost heap in proportion to how many lanes there are — a table
// indexed by the largest id would want 16 GiB for the first event alone.
func TestFoldLaneTableBoundedByDistinctLanes(t *testing.T) {
	sym := NewSymTab()
	fid := sym.Register("f")
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	f := NewFold(sym)
	f.Step(&Event{Kind: KindEnter, Lane: 1 << 31, FuncID: fid})
	f.Step(&Event{Kind: KindEnter, Lane: foldDenseLanes - 1, FuncID: fid})
	if len(f.dense) != foldDenseLanes || len(f.spill) != 1 {
		t.Fatalf("dense table %d entries, spill %d; want %d and 1", len(f.dense), len(f.spill), foldDenseLanes)
	}
	const lanes = 100_000
	for i := uint32(0); i < lanes; i++ {
		id := foldDenseLanes + i*42_949 // strictly increasing, ends near 1<<32
		f.Step(&Event{Kind: KindEnter, Lane: id, FuncID: fid, TS: time.Duration(i)})
		if m := f.Step(&Event{Kind: KindExit, Lane: id, FuncID: fid, TS: time.Duration(i)}); m.Kind != FactClosed {
			t.Fatalf("lane %d: exit = %+v, want closed", id, m)
		}
	}
	if got := len(f.Lanes()); got != lanes+2 {
		t.Fatalf("%d lanes, want %d", got, lanes+2)
	}
	if len(f.dense) != foldDenseLanes {
		t.Fatalf("dense table grew to %d entries", len(f.dense))
	}
	grown := heap() - before
	if perLane := grown / lanes; perLane > 512 {
		t.Errorf("heap grew %d B for %d lanes (%d B/lane), want at most 512 B/lane", grown, lanes, perLane)
	}
	runtime.KeepAlive(f)
}
