package gprof

import (
	"testing"
	"time"

	"tempest/internal/trace"
	"tempest/internal/vclock"
)

func TestLiveProfilerUnbalanced(t *testing.T) {
	p := New()
	if err := p.Exit(0, "never"); err == nil {
		t.Error("exit on empty stack should fail")
	}
	p.Enter(0, "a")
	if err := p.Exit(0, "b"); err == nil {
		t.Error("mismatched exit should fail")
	}
}

// buildTrace makes: main(0..10s) calling hot(1s..9s) calling inner(2s..3s),
// then a second hot call (9s..10s) directly under main… on one lane.
func buildTrace(t *testing.T) *trace.Trace {
	t.Helper()
	clk := vclock.NewVirtualClock()
	tr, err := trace.NewTracer(trace.Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	lane := tr.NewLane()
	main := tr.RegisterFunc("main")
	hot := tr.RegisterFunc("hot")
	inner := tr.RegisterFunc("inner")

	lane.Enter(main) // t=0
	clk.Advance(time.Second)
	lane.Enter(hot) // t=1
	clk.Advance(time.Second)
	lane.Enter(inner) // t=2
	clk.Advance(time.Second)
	mustExit(t, lane, inner) // t=3
	clk.Advance(6 * time.Second)
	mustExit(t, lane, hot) // t=9
	clk.Advance(time.Second)
	mustExit(t, lane, main) // t=10
	return tr.Finish()
}

func mustExit(t *testing.T, lane *trace.Lane, fid uint32) {
	t.Helper()
	if err := lane.Exit(fid); err != nil {
		t.Fatal(err)
	}
}

func TestFromTraceExactTimes(t *testing.T) {
	entries, err := FromTrace(buildTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Entry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	// main: inclusive 10 s, self 10-8 = 2 s.
	if e := byName["main"]; e.Cumulative != 10*time.Second || e.Self != 2*time.Second || e.Calls != 1 {
		t.Errorf("main = %+v", e)
	}
	// hot: inclusive 8 s, self 8-1 = 7 s.
	if e := byName["hot"]; e.Cumulative != 8*time.Second || e.Self != 7*time.Second || e.Calls != 1 {
		t.Errorf("hot = %+v", e)
	}
	// inner: 1 s, self 1 s.
	if e := byName["inner"]; e.Cumulative != time.Second || e.Self != time.Second || e.Calls != 1 {
		t.Errorf("inner = %+v", e)
	}
	// Sorted by self: hot, main, inner.
	if entries[0].Name != "hot" || entries[1].Name != "main" || entries[2].Name != "inner" {
		t.Errorf("order: %v %v %v", entries[0].Name, entries[1].Name, entries[2].Name)
	}
	// Percent sums to ≈100.
	var pct float64
	for _, e := range entries {
		pct += e.SelfPercent
	}
	if pct < 99.9 || pct > 100.1 {
		t.Errorf("percent sum = %v", pct)
	}
}

func TestFromTraceRecursion(t *testing.T) {
	clk := vclock.NewVirtualClock()
	tr, _ := trace.NewTracer(trace.Config{Clock: clk})
	lane := tr.NewLane()
	f := tr.RegisterFunc("fib")
	// fib calls itself: outer 0..4s, inner 1..2s.
	lane.Enter(f)
	clk.Advance(time.Second)
	lane.Enter(f)
	clk.Advance(time.Second)
	mustExit(t, lane, f)
	clk.Advance(2 * time.Second)
	mustExit(t, lane, f)
	entries, err := FromTrace(tr.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	e := entries[0]
	if e.Calls != 2 {
		t.Errorf("calls = %d", e.Calls)
	}
	// Self must equal wall time (4 s): the recursive inner second is not
	// double-counted as "child time lost".
	if e.Self != 4*time.Second {
		t.Errorf("self = %v, want 4s", e.Self)
	}
	// Cumulative double-counts recursion (outer 4 + inner 1), as gprof does.
	if e.Cumulative != 5*time.Second {
		t.Errorf("cumulative = %v, want 5s", e.Cumulative)
	}
}

func TestFromTraceDanglingFrames(t *testing.T) {
	clk := vclock.NewVirtualClock()
	tr, _ := trace.NewTracer(trace.Config{Clock: clk})
	lane := tr.NewLane()
	f := tr.RegisterFunc("open")
	lane.Enter(f)
	clk.Advance(3 * time.Second)
	tr.Marker("end") // moves last-timestamp without closing the frame
	entries, err := FromTrace(tr.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Cumulative != 3*time.Second {
		t.Errorf("dangling frame charged %v, want 3s", entries[0].Cumulative)
	}
}

func TestFromTraceErrors(t *testing.T) {
	if _, err := FromTrace(nil); err == nil {
		t.Error("nil trace should fail")
	}
	bad := &trace.Trace{Sym: trace.NewSymTab(), Events: []trace.Event{
		{Kind: trace.KindExit, FuncID: 0},
	}}
	bad.Sym.Register("f")
	if _, err := FromTrace(bad); err == nil {
		t.Error("exit on empty stack should fail")
	}
	bad2 := &trace.Trace{Sym: trace.NewSymTab(), Events: []trace.Event{
		{Kind: trace.KindEnter, FuncID: 0},
		{Kind: trace.KindExit, FuncID: 1, TS: time.Second},
	}}
	bad2.Sym.Register("f")
	bad2.Sym.Register("g")
	if _, err := FromTrace(bad2); err == nil {
		t.Error("mismatched exit should fail")
	}
}

func TestFromTraceMultiLane(t *testing.T) {
	clk := vclock.NewVirtualClock()
	tr, _ := trace.NewTracer(trace.Config{Clock: clk})
	l1 := tr.NewLane()
	l2 := tr.NewLane()
	f := tr.RegisterFunc("worker")
	l1.Enter(f)
	l2.Enter(f)
	clk.Advance(2 * time.Second)
	mustExit(t, l1, f)
	mustExit(t, l2, f)
	entries, err := FromTrace(tr.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Self != 4*time.Second || entries[0].Calls != 2 {
		t.Errorf("two-lane worker = %+v", entries[0])
	}
}

func BenchmarkLiveEnterExit(b *testing.B) {
	p := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Enter(0, "f")
		_ = p.Exit(0, "f")
	}
}

func BenchmarkFromTrace10k(b *testing.B) {
	clk := vclock.NewVirtualClock()
	tr, _ := trace.NewTracer(trace.Config{Clock: clk, LaneBufferCap: 1 << 20})
	lane := tr.NewLane()
	f := tr.RegisterFunc("f")
	for i := 0; i < 10000; i++ {
		clk.Advance(time.Microsecond)
		lane.Enter(f)
		clk.Advance(time.Microsecond)
		_ = lane.Exit(f)
	}
	trc := tr.Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromTrace(trc); err != nil {
			b.Fatal(err)
		}
	}
}
