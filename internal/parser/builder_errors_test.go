package parser_test

import (
	"strings"
	"testing"
	"time"

	"tempest/internal/parser"
	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// Structural stream errors must name the function involved: "exit of
// func 3" is useless in a report about a damaged trace, the symbol table
// is right there.

func TestBuilderEmptyStackErrorNamesFunction(t *testing.T) {
	sym := trace.NewSymTab()
	fid := sym.Register("frobnicate")
	b := parser.NewBuilder(0, sym, parser.Options{})
	err := b.Add([]trace.Event{{TS: time.Second, Lane: 2, FuncID: fid, Kind: trace.KindExit}})
	if err == nil {
		t.Fatal("exit with empty stack accepted")
	}
	for _, want := range []string{`"frobnicate"`, "empty stack", "lane 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestBuilderEmptyStackErrorUnknownID(t *testing.T) {
	// The id may itself be part of the damage: an unresolvable function
	// falls back to the raw number instead of failing the error path.
	b := parser.NewBuilder(0, trace.NewSymTab(), parser.Options{})
	err := b.Add([]trace.Event{{TS: time.Second, FuncID: 99, Kind: trace.KindExit}})
	if err == nil {
		t.Fatal("exit with empty stack accepted")
	}
	if !strings.Contains(err.Error(), "func 99") {
		t.Errorf("error %q missing raw-id fallback \"func 99\"", err)
	}
}

func TestBuilderMismatchedExitErrorNamesBoth(t *testing.T) {
	sym := trace.NewSymTab()
	outer := sym.Register("outer_phase")
	inner := sym.Register("inner_kernel")
	b := parser.NewBuilder(0, sym, parser.Options{})
	err := b.Add([]trace.Event{
		{TS: time.Second, FuncID: outer, Kind: trace.KindEnter},
		{TS: 2 * time.Second, FuncID: inner, Kind: trace.KindExit},
	})
	if err == nil {
		t.Fatal("mismatched exit accepted")
	}
	for _, want := range []string{`exit of "inner_kernel"`, `while "outer_phase" is open`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestBuilderOpenFunctionsTruncatedLanes drives the truncated-trace
// path: several lanes end the stream with frames still open (nested on
// one of them), so OpenFunctions must report each open function exactly
// once, sorted, and Finish must still close them at trace end.
func TestBuilderOpenFunctionsTruncatedLanes(t *testing.T) {
	clk := vclock.NewVirtualClock()
	tr, err := trace.NewTracer(trace.Config{Clock: clk, NodeID: 5, LaneBufferCap: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	l0, l1, l2 := tr.NewLane(), tr.NewLane(), tr.NewLane()
	outer := tr.RegisterFunc("outer_loop")
	kernel := tr.RegisterFunc("deep_kernel")
	idle := tr.RegisterFunc("idle_spin")
	done := tr.RegisterFunc("done_early")

	l0.Enter(outer)
	clk.Advance(time.Second)
	l0.Enter(kernel) // nested, both left open
	l1.Enter(kernel) // same function open on a second lane
	l2.Enter(done)
	clk.Advance(time.Second)
	if err := l2.Exit(done); err != nil {
		t.Fatal(err)
	}
	l2.Enter(idle) // left open
	clk.Advance(time.Second)
	tr.Marker("torn_here") // pins trace end at 3s: dangling frames close here
	tro := tr.Finish()
	tro.Truncated = true // the tail was torn off mid-run

	b := parser.NewBuilder(tro.NodeID, tro.Sym, parser.Options{})
	if err := b.Add(tro.Events); err != nil {
		t.Fatal(err)
	}
	b.SetTruncated(tro.Truncated)

	open := b.OpenFunctions()
	want := []string{"deep_kernel", "idle_spin", "outer_loop"} // sorted, deduped across lanes
	if len(open) != len(want) {
		t.Fatalf("OpenFunctions = %v, want %v", open, want)
	}
	for i := range want {
		if open[i] != want[i] {
			t.Fatalf("OpenFunctions = %v, want %v", open, want)
		}
	}

	np, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !np.Truncated {
		t.Error("profile lost the truncation flag")
	}
	// Finish closes dangling frames at trace end: every open function
	// shows up with real time; the nested pair spans to the last event.
	for _, name := range want {
		fp, ok := np.Function(name)
		if !ok || fp.TotalTime <= 0 {
			t.Errorf("function %s = %+v ok=%v, want positive time from a closed-at-end frame", name, fp, ok)
		}
	}
	outerP, _ := np.Function("outer_loop")
	if outerP.TotalTime < 3*time.Second {
		t.Errorf("outer_loop total %v, want the full 3s span to trace end", outerP.TotalTime)
	}
}

// A function id outside the symbol table used to pass Add and fail only
// at Finish, where the name is first needed — the node lost its whole
// profile to one bad event. It is a structural error at the event now,
// attached mid-stream or not, and the function-indexed tables never
// learn of it.
func TestBuilderRejectsFuncIDOutsideTable(t *testing.T) {
	for _, midStream := range []bool{false, true} {
		for _, kind := range []trace.EventKind{trace.KindEnter, trace.KindExit} {
			sym := trace.NewSymTab()
			ok := sym.Register("known")
			b := parser.NewBuilder(0, sym, parser.Options{MidStream: midStream})
			good := []trace.Event{
				{TS: 1, FuncID: ok, Kind: trace.KindEnter},
				{TS: 2, FuncID: ok, Kind: trace.KindExit},
			}
			if err := b.Add(good); err != nil {
				t.Fatal(err)
			}
			err := b.Add([]trace.Event{
				{TS: 3, FuncID: ok, Kind: trace.KindEnter},
				{TS: 4, Lane: 7, FuncID: 1 << 30, Kind: kind},
				{TS: 5, FuncID: ok, Kind: trace.KindExit},
			})
			if err == nil {
				t.Fatalf("midStream=%v: %s of an id outside the table accepted", midStream, kind)
			}
			for _, want := range []string{"event 3", kind.String(), "func 1073741824", "symbol table of 1", "lane 7"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
			if b.Events() != 3 {
				t.Errorf("consumed %d events, want the 3 before the bad one", b.Events())
			}
			if again := b.Add(good); again == nil || again.Error() != err.Error() {
				t.Errorf("poisoned builder answered %v, want %v", again, err)
			}
			if _, ferr := b.Finish(); ferr == nil || ferr.Error() != err.Error() {
				t.Errorf("Finish after poison = %v, want %v", ferr, err)
			}
		}
	}

	// A table that grew since the last look is not an error: ids are
	// checked against the table as it is when the event arrives.
	sym := trace.NewSymTab()
	b := parser.NewBuilder(0, sym, parser.Options{})
	first := sym.Register("first")
	if err := b.Add([]trace.Event{{TS: 1, FuncID: first, Kind: trace.KindEnter}}); err != nil {
		t.Fatal(err)
	}
	late := sym.Register("late")
	if err := b.Add([]trace.Event{
		{TS: 2, FuncID: late, Kind: trace.KindEnter},
		{TS: 3, FuncID: late, Kind: trace.KindExit},
		{TS: 4, FuncID: first, Kind: trace.KindExit},
	}); err != nil {
		t.Fatalf("id registered between batches rejected: %v", err)
	}
	np, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if fp, ok := np.Function("late"); !ok || fp.Calls != 1 || fp.TotalTime != 1 {
		t.Errorf("late = %+v ok=%v, want one 1ns call", fp, ok)
	}
}

// An exit stamped before its own enter — a lane whose clock ran
// backwards, which no tracer records but a damaged or hostile stream can
// carry — used to reach InsertInterval as an inverted span and index past
// the interval list. It is a structural error naming both instants.
func TestBuilderRejectsExitBeforeEnter(t *testing.T) {
	sym := trace.NewSymTab()
	fid := sym.Register("warp")
	b := parser.NewBuilder(0, sym, parser.Options{})
	err := b.Add([]trace.Event{
		{TS: 5, FuncID: fid, Kind: trace.KindEnter},
		{TS: 6, FuncID: fid, Kind: trace.KindExit},
		{TS: 10, Lane: 1, FuncID: fid, Kind: trace.KindEnter},
		{TS: 2, Lane: 1, FuncID: fid, Kind: trace.KindExit},
	})
	if err == nil {
		t.Fatal("exit before its enter accepted")
	}
	for _, want := range []string{"event 3", `"warp"`, "2ns precedes its enter at 10ns", "lane 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}
