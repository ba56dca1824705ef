package trace

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tempest/internal/vclock"
)

func newTestTracer(t *testing.T, bufCap int) (*Tracer, *vclock.VirtualClock) {
	t.Helper()
	clk := vclock.NewVirtualClock()
	tr, err := NewTracer(Config{Clock: clk, NodeID: 1, Rank: 2, LaneBufferCap: bufCap})
	if err != nil {
		t.Fatal(err)
	}
	return tr, clk
}

func TestNewTracerValidation(t *testing.T) {
	if _, err := NewTracer(Config{}); err == nil {
		t.Error("missing clock should fail")
	}
	if _, err := NewTracer(Config{Clock: vclock.NewVirtualClock(), LaneBufferCap: -1}); err == nil {
		t.Error("negative buffer cap should fail")
	}
}

func TestEnterExitTimeline(t *testing.T) {
	tr, clk := newTestTracer(t, 0)
	lane := tr.NewLane()
	foo := tr.RegisterFunc("foo")
	bar := tr.RegisterFunc("bar")

	lane.Enter(foo)
	clk.Advance(10 * time.Millisecond)
	lane.Enter(bar)
	clk.Advance(5 * time.Millisecond)
	if err := lane.Exit(bar); err != nil {
		t.Fatal(err)
	}
	clk.Advance(1 * time.Millisecond)
	if err := lane.Exit(foo); err != nil {
		t.Fatal(err)
	}

	evs, sym := tr.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	wantKinds := []EventKind{KindEnter, KindEnter, KindExit, KindExit}
	wantTS := []time.Duration{0, 10 * time.Millisecond, 15 * time.Millisecond, 16 * time.Millisecond}
	for i, e := range evs {
		if e.Kind != wantKinds[i] || e.TS != wantTS[i] {
			t.Errorf("event %d = %v@%v, want %v@%v", i, e.Kind, e.TS, wantKinds[i], wantTS[i])
		}
	}
	if name, _ := sym.Name(evs[1].FuncID); name != "bar" {
		t.Errorf("second event func = %q", name)
	}
}

func TestExitValidation(t *testing.T) {
	tr, _ := newTestTracer(t, 0)
	lane := tr.NewLane()
	foo := tr.RegisterFunc("foo")
	bar := tr.RegisterFunc("bar")

	if err := lane.Exit(foo); !errors.Is(err, ErrStackEmpty) {
		t.Errorf("empty-stack exit err = %v", err)
	}
	lane.Enter(foo)
	if err := lane.Exit(bar); !errors.Is(err, ErrStackMismatch) {
		t.Errorf("mismatched exit err = %v", err)
	}
	if lane.Depth() != 0 {
		t.Errorf("depth after pop = %d", lane.Depth())
	}
}

func TestRecursionDepth(t *testing.T) {
	// Table 1's micro-benchmark E exercises recursion; the shadow stack
	// must handle self-calls.
	tr, clk := newTestTracer(t, 0)
	lane := tr.NewLane()
	fib := tr.RegisterFunc("fib")
	var rec func(n int)
	rec = func(n int) {
		lane.Enter(fib)
		clk.Advance(time.Microsecond)
		if n > 0 {
			rec(n - 1)
		}
		if err := lane.Exit(fib); err != nil {
			t.Fatal(err)
		}
	}
	rec(10)
	evs, _ := tr.Snapshot()
	if len(evs) != 22 {
		t.Fatalf("events = %d, want 22", len(evs))
	}
	if lane.Depth() != 0 {
		t.Errorf("depth = %d after balanced recursion", lane.Depth())
	}
}

func TestInstrument(t *testing.T) {
	tr, clk := newTestTracer(t, 0)
	lane := tr.NewLane()
	ran := false
	err := lane.Instrument("work", func() {
		ran = true
		clk.Advance(time.Second)
	})
	if err != nil || !ran {
		t.Fatalf("Instrument err=%v ran=%v", err, ran)
	}
	evs, sym := tr.Snapshot()
	if len(evs) != 2 || evs[0].Kind != KindEnter || evs[1].Kind != KindExit {
		t.Fatalf("events: %+v", evs)
	}
	if name, _ := sym.Name(evs[0].FuncID); name != "work" {
		t.Errorf("func = %q", name)
	}
	if evs[1].TS-evs[0].TS != time.Second {
		t.Errorf("duration = %v", evs[1].TS-evs[0].TS)
	}
}

func TestInstrumentRecordsExitOnPanic(t *testing.T) {
	tr, _ := newTestTracer(t, 0)
	lane := tr.NewLane()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic should propagate")
			}
		}()
		_ = lane.Instrument("boom", func() { panic("x") })
	}()
	evs, _ := tr.Snapshot()
	if len(evs) != 2 || evs[1].Kind != KindExit {
		t.Errorf("panic path events: %+v", evs)
	}
}

func TestSampleAndMarker(t *testing.T) {
	tr, clk := newTestTracer(t, 0)
	clk.Advance(time.Second)
	tr.Sample(3, 39.0)
	tr.Marker("mpi_barrier")
	evs, sym := tr.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	s := evs[0]
	if s.Kind != KindSample || s.SensorID != 3 || s.ValueC != 39.0 || s.TS != time.Second {
		t.Errorf("sample event: %+v", s)
	}
	m := evs[1]
	if m.Kind != KindMarker {
		t.Errorf("marker event: %+v", m)
	}
	if name, _ := sym.Name(m.FuncID); name != "mpi_barrier" {
		t.Errorf("marker name = %q", name)
	}
}

func TestBufferOverflowDropsAndCounts(t *testing.T) {
	tr, _ := newTestTracer(t, 8)
	lane := tr.NewLane()
	f := tr.RegisterFunc("f")
	for i := 0; i < 100; i++ {
		lane.Enter(f)
	}
	if tr.DroppedCount() == 0 {
		t.Error("expected drops")
	}
	if got := tr.EventCount(); got > 8 {
		t.Errorf("recorded %d events into cap-8 buffer", got)
	}
	evs, _ := tr.Snapshot()
	if len(evs) > 8 {
		t.Errorf("snapshot has %d events", len(evs))
	}
}

func TestDropEventEmittedAfterPressureClears(t *testing.T) {
	tr, clk := newTestTracer(t, 4)
	lane := tr.NewLane()
	f := tr.RegisterFunc("f")
	for i := 0; i < 10; i++ {
		lane.Enter(f) // fills buffer, then drops
	}
	// Snapshot shows full buffer, no drop marker yet (no room).
	evs, _ := tr.Snapshot()
	hasDrop := false
	for _, e := range evs {
		if e.Kind == KindDrop {
			hasDrop = true
		}
	}
	if hasDrop {
		t.Fatal("drop marker should not appear while buffer is full")
	}
	_ = clk // drop markers only appear when a fresh lane has space:
	lane2 := tr.NewLane()
	lane2.drops = 3 // simulate pressure history carried by the lane
	lane2.Enter(f)
	evs2, _ := tr.Snapshot()
	found := false
	for _, e := range evs2 {
		if e.Kind == KindDrop && e.Aux == 3 && e.Lane == lane2.id {
			found = true
		}
	}
	if !found {
		t.Error("pending drop count was not materialised as a KindDrop event")
	}
}

// A lane that recorded since the last Drain keeps its buffer for the
// next interval — without disturbing the events Drain handed out — and
// a lane that sat idle through an interval gives it back.
func TestDrainKeepsBusyLaneCapacity(t *testing.T) {
	const bufCap = 64
	tr, clk := newTestTracer(t, bufCap)
	lane := tr.NewLane()
	f, g := tr.RegisterFunc("f"), tr.RegisterFunc("g")
	record := func(fid uint32) {
		for i := 0; i < 20; i++ {
			clk.Advance(time.Microsecond)
			lane.Enter(fid)
			_ = lane.Exit(fid)
		}
	}
	record(f)
	first, _ := tr.Drain()
	kept := cap(lane.buf)
	if len(first) != 40 || len(lane.buf) != 0 || kept < 40 || kept > bufCap {
		t.Fatalf("drained %d events leaving len=%d cap=%d, want 40, 0 and 40..%d", len(first), len(lane.buf), kept, bufCap)
	}
	record(g)
	if cap(lane.buf) != kept {
		t.Errorf("busy lane regrew its buffer: cap %d then %d", kept, cap(lane.buf))
	}
	for _, e := range first {
		if e.FuncID != f {
			t.Fatalf("recording after Drain overwrote a drained event: %+v", e)
		}
	}
	if second, _ := tr.Drain(); len(second) != 40 || second[0].FuncID != g {
		t.Errorf("second drain: %d events starting %+v", len(second), second[0])
	}
	if idle, _ := tr.Drain(); len(idle) != 0 || lane.buf != nil {
		t.Errorf("idle interval: drained %d events, lane still holds cap %d", len(idle), cap(lane.buf))
	}
}

func TestEventCountSumsLanes(t *testing.T) {
	tr, _ := newTestTracer(t, 4)
	a, b := tr.NewLane(), tr.NewLane()
	f := tr.RegisterFunc("f")
	a.Enter(f)
	_ = a.Exit(f)
	for i := 0; i < 10; i++ {
		b.Enter(f) // 4 recorded, 6 dropped
	}
	tr.Sample(0, 50) // lane 0
	if got := tr.EventCount(); got != 2+4+1 {
		t.Errorf("EventCount = %d, want 7", got)
	}
	tr.Drain() // the count is of events ever recorded, not buffered
	a.Enter(f)
	if got := tr.EventCount(); got != 8 {
		t.Errorf("EventCount after a drain and one more event = %d, want 8", got)
	}
	if got := tr.DroppedCount(); got != 6 {
		t.Errorf("DroppedCount = %d, want 6", got)
	}
}

func TestExplicitTimestampsClampPerLane(t *testing.T) {
	tr, _ := newTestTracer(t, 0)
	lane := tr.NewLane()
	f := tr.RegisterFunc("f")
	lane.EnterAt(f, 10*time.Second)
	lane.MarkerAt("m", 4*time.Second)
	if err := lane.ExitAt(f, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := lane.ExitAt(f, 20*time.Second); !errors.Is(err, ErrStackEmpty) {
		t.Errorf("unbalanced ExitAt: %v", err)
	}
	tr.SampleAt(0, 50, 3*time.Second) // lane 0 has its own history
	want := []time.Duration{10 * time.Second, 10 * time.Second, 10 * time.Second, 20 * time.Second}
	for i, e := range lane.buf {
		if e.TS != want[i] {
			t.Errorf("lane event %d at %v, want %v", i, e.TS, want[i])
		}
	}
	if ts := tr.lane0.buf[0].TS; ts != 3*time.Second {
		t.Errorf("lane 0 sample at %v, want 3s", ts)
	}
}

func TestRegisterFuncIdempotent(t *testing.T) {
	tr, _ := newTestTracer(t, 0)
	a := tr.RegisterFunc("same")
	b := tr.RegisterFunc("same")
	if a != b {
		t.Errorf("ids differ: %d vs %d", a, b)
	}
	if tr.SymTab().Len() != 1 {
		t.Errorf("symtab len = %d", tr.SymTab().Len())
	}
}

func TestConcurrentLanes(t *testing.T) {
	tr, _ := newTestTracer(t, 1<<20)
	const nLanes, nCalls = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < nLanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lane := tr.NewLane()
			fid := tr.RegisterFunc("worker")
			for j := 0; j < nCalls; j++ {
				lane.Enter(fid)
				if err := lane.Exit(fid); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	// Concurrent snapshots must not race with recording.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			tr.Snapshot()
		}
		close(done)
	}()
	wg.Wait()
	<-done
	evs, _ := tr.Snapshot()
	if len(evs) != nLanes*nCalls*2 {
		t.Errorf("events = %d, want %d", len(evs), nLanes*nCalls*2)
	}
	if tr.DroppedCount() != 0 {
		t.Errorf("unexpected drops: %d", tr.DroppedCount())
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	tr, _ := newTestTracer(t, 0)
	l1 := tr.NewLane()
	l2 := tr.NewLane()
	f := tr.RegisterFunc("f")
	// Same virtual timestamp on both lanes: order must be by lane id.
	l2.Enter(f)
	l1.Enter(f)
	evs, _ := tr.Snapshot()
	if evs[0].Lane != l1.id || evs[1].Lane != l2.id {
		t.Errorf("tie-break order wrong: %+v", evs)
	}
}

func TestFinish(t *testing.T) {
	tr, _ := newTestTracer(t, 0)
	lane := tr.NewLane()
	_ = lane.Instrument("f", func() {})
	trc := tr.Finish()
	if trc.NodeID != 1 || trc.Rank != 2 {
		t.Errorf("identity = %d/%d", trc.NodeID, trc.Rank)
	}
	if len(trc.Events) != 2 || trc.Sym.Len() != 1 {
		t.Errorf("finish contents: %d events, %d syms", len(trc.Events), trc.Sym.Len())
	}
	if tr.NodeID() != 1 || tr.Rank() != 2 {
		t.Error("accessors wrong")
	}
}

func TestEventValid(t *testing.T) {
	if err := (Event{Kind: KindEnter}).Valid(); err != nil {
		t.Error(err)
	}
	if err := (Event{Kind: 0}).Valid(); err == nil {
		t.Error("zero kind should be invalid")
	}
	if err := (Event{Kind: KindEnter, TS: -1}).Valid(); err == nil {
		t.Error("negative TS should be invalid")
	}
}

func TestEventKindString(t *testing.T) {
	cases := map[EventKind]string{
		KindEnter: "enter", KindExit: "exit", KindSample: "sample",
		KindMarker: "marker", KindDrop: "drop", EventKind(99): "EventKind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func BenchmarkEnterExit(b *testing.B) {
	clk := vclock.NewRealClock()
	tr, err := NewTracer(Config{Clock: clk, LaneBufferCap: 1 << 24})
	if err != nil {
		b.Fatal(err)
	}
	lane := tr.NewLane()
	fid := tr.RegisterFunc("hot")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lane.Enter(fid)
		_ = lane.Exit(fid)
	}
}
