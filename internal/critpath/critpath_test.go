package critpath

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"tempest/internal/trace"
)

// script builds a hand-ordered multi-lane event stream against one
// symbol table — the analyzer's feed contract (non-decreasing TS across
// lanes) is the author's responsibility here, which is the point: tests
// control the interleave exactly.
type script struct {
	sym    *trace.SymTab
	events []trace.Event
}

func newScript() *script { return &script{sym: trace.NewSymTab()} }

func (s *script) enter(ts time.Duration, lane uint32, name string) {
	s.events = append(s.events, trace.Event{
		TS: ts, Lane: lane, Kind: trace.KindEnter, FuncID: s.sym.Register(name),
	})
}

func (s *script) exit(ts time.Duration, lane uint32, name string) {
	s.events = append(s.events, trace.Event{
		TS: ts, Lane: lane, Kind: trace.KindExit, FuncID: s.sym.Register(name),
	})
}

func (s *script) trace() *trace.Trace {
	return &trace.Trace{NodeID: 0, Events: s.events, Sym: s.sym}
}

// barrierScript is the canonical two-lane stagger: lane 0 finishes its
// compute (f) at t=4s and waits in MPI_Barrier; lane 1 computes (h)
// until t=7s — so for 3s, h holds the only busy lane while lane 0
// waits. Both leave the barrier at t=8s and run 2s more.
func barrierScript() *script {
	s := newScript()
	sec := time.Second
	s.enter(0, 0, "main")
	s.enter(0, 0, "f")
	s.enter(0, 1, "main")
	s.enter(0, 1, "h")
	s.exit(4*sec, 0, "f")
	s.enter(4*sec, 0, "MPI_Barrier")
	s.exit(7*sec, 1, "h")
	s.enter(7*sec, 1, "MPI_Barrier")
	s.exit(8*sec, 0, "MPI_Barrier")
	s.exit(8*sec, 1, "MPI_Barrier")
	s.enter(8*sec, 0, "g")
	s.enter(8*sec, 1, "g2")
	s.exit(10*sec, 0, "g")
	s.exit(10*sec, 1, "g2")
	s.exit(10*sec, 0, "main")
	s.exit(10*sec, 1, "main")
	return s
}

func near(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func TestBarrierStaggerAttribution(t *testing.T) {
	a, err := AnalyzeTrace(barrierScript().trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := a.Summary()

	near(t, "DurationS", s.DurationS, 10)
	if s.StackAnomalies != 0 || s.OrderAnomalies != 0 {
		t.Errorf("anomalies on a clean stream: stack=%d order=%d", s.StackAnomalies, s.OrderAnomalies)
	}

	// Lane splits: lane 0 computes 6s (f, g) and waits 4s in the barrier;
	// lane 1 computes 9s (h, g2) and waits 1s.
	if len(s.Lanes) != 2 {
		t.Fatalf("lanes = %d, want 2", len(s.Lanes))
	}
	near(t, "lane0 busy", s.Lanes[0].BusyS, 6)
	near(t, "lane0 wait", s.Lanes[0].WaitS, 4)
	near(t, "lane0 off", s.Lanes[0].OffS, 0)
	near(t, "lane1 busy", s.Lanes[1].BusyS, 9)
	near(t, "lane1 wait", s.Lanes[1].WaitS, 1)
	near(t, "lane0 wait share", s.Lanes[0].WaitShare, 0.4)

	// Caused wait: during [4s,7s] one lane waits while only h runs, so h
	// (and its lane) is charged 3 wait-seconds. During [7s,8s] nobody is
	// busy — the barrier's intrinsic cost is charged to no function.
	near(t, "lane0 caused", s.Lanes[0].CausedWaitS, 0)
	near(t, "lane1 caused", s.Lanes[1].CausedWaitS, 3)
	st, ok := s.Straggler()
	if !ok || st.Lane != 1 {
		t.Fatalf("Straggler = %+v, %v; want lane 1", st, ok)
	}

	// Serialization: exactly the [4s,7s] window, attributed to h.
	near(t, "SerialS", s.SerialS, 3)
	near(t, "SerialFraction", s.SerialFraction, 0.3)
	h, ok := s.Function("h")
	if !ok {
		t.Fatal("h missing from Functions")
	}
	near(t, "h serial", h.SerialS, 3)
	near(t, "h caused", h.CausedWaitS, 3)
	near(t, "h longest", h.LongestS, 3)
	if h.Windows != 1 {
		t.Errorf("h windows = %d, want 1", h.Windows)
	}
	if len(s.Functions) != 1 {
		t.Errorf("Functions = %+v, want only h (zero-cost rows omitted)", s.Functions)
	}

	// Barrier op: lane 0 waited 4s, lane 1 waited 1s. The straggler is
	// the lane that waited least — it arrived last.
	b, ok := s.Op("MPI_Barrier")
	if !ok {
		t.Fatal("MPI_Barrier missing from Ops")
	}
	if b.Calls != 2 {
		t.Errorf("barrier calls = %d, want 2", b.Calls)
	}
	near(t, "barrier total", b.TotalWaitS, 5)
	near(t, "barrier max", b.MaxLaneWaitS, 4)
	near(t, "barrier min", b.MinLaneWaitS, 1)
	near(t, "barrier imbalance", b.ImbalanceS, 3)
	if b.StragglerLane != 1 {
		t.Errorf("barrier straggler lane = %d, want 1", b.StragglerLane)
	}
}

func TestSoloLaneWithoutWaitersIsNotSerialization(t *testing.T) {
	// Lane 1 runs 2s then finishes (stack empty → Off). Lane 0 keeps
	// computing alone until t=10s. Nobody waits, so nothing serializes.
	s := newScript()
	sec := time.Second
	s.enter(0, 0, "solo")
	s.enter(0, 1, "early")
	s.exit(2*sec, 1, "early")
	s.exit(10*sec, 0, "solo")
	a, err := AnalyzeTrace(s.trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := a.Summary()
	near(t, "SerialS", sum.SerialS, 0)
	if len(sum.Functions) != 0 {
		t.Errorf("Functions = %+v, want none", sum.Functions)
	}
	near(t, "lane1 off", sum.Lanes[1].OffS, 8)
}

// TestStreamMatchesBatch pins the byte-identity contract: any chunking
// of the same event stream through Add produces the same Summary and
// Tracks as the whole-trace entry point, byte for byte.
func TestStreamMatchesBatch(t *testing.T) {
	sc := barrierScript()
	opts := Options{Timeline: true, MaxTrackSegments: 8}

	batch, err := AnalyzeTrace(sc.trace(), opts)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, err := json.Marshal(batch.Summary())
	if err != nil {
		t.Fatal(err)
	}
	wantTracks := batch.Tracks()

	for _, chunk := range []int{1, 2, 3, 5, 100} {
		stream := New(opts)
		for i := 0; i < len(sc.events); i += chunk {
			end := i + chunk
			if end > len(sc.events) {
				end = len(sc.events)
			}
			if err := stream.Add(0, sc.sym, sc.events[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		gotSum, err := json.Marshal(stream.Summary())
		if err != nil {
			t.Fatal(err)
		}
		if string(gotSum) != string(wantSum) {
			t.Errorf("chunk=%d: summary mismatch\n got %s\nwant %s", chunk, gotSum, wantSum)
		}
		if got := stream.Tracks(); !reflect.DeepEqual(got, wantTracks) {
			t.Errorf("chunk=%d: tracks mismatch\n got %+v\nwant %+v", chunk, got, wantTracks)
		}
	}
}

func TestSummaryIsNonDestructive(t *testing.T) {
	sc := barrierScript()
	split := 7 // mid-stream: lane 0 is inside the barrier, lane 1 busy

	probed := New(Options{Timeline: true})
	if err := probed.Add(0, sc.sym, sc.events[:split]); err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(probed.Summary())
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(probed.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Errorf("repeated Summary differs:\n %s\n %s", first, second)
	}
	probed.Tracks() // must not mutate either
	if err := probed.Add(0, sc.sym, sc.events[split:]); err != nil {
		t.Fatal(err)
	}

	clean := New(Options{Timeline: true})
	if err := clean.Add(0, sc.sym, sc.events); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(probed.Summary())
	want, _ := json.Marshal(clean.Summary())
	if string(got) != string(want) {
		t.Errorf("mid-stream Summary disturbed the analysis:\n got %s\nwant %s", got, want)
	}
}

func TestMidStreamSummaryCountsPendingState(t *testing.T) {
	sc := barrierScript()
	a := New(Options{})
	// Through event index 6 (t=7s): lane 0 has been in the barrier for
	// 3s, lane 1 just exited h — the open serialization window and the
	// open wait must both appear in the snapshot.
	if err := a.Add(0, sc.sym, sc.events[:7]); err != nil {
		t.Fatal(err)
	}
	s := a.Summary()
	near(t, "mid SerialS", s.SerialS, 3)
	near(t, "mid lane0 wait", s.Lanes[0].WaitS, 3)
	b, ok := s.Op("MPI_Barrier")
	if !ok {
		t.Fatal("open barrier missing from Ops")
	}
	near(t, "mid barrier total", b.TotalWaitS, 3)
	h, ok := s.Function("h")
	if !ok {
		t.Fatal("h missing mid-stream")
	}
	near(t, "mid h caused", h.CausedWaitS, 3)
}

func TestOrderAnomalyClamping(t *testing.T) {
	s := newScript()
	sec := time.Second
	s.enter(2*sec, 0, "a")
	s.enter(1*sec, 1, "b") // regression: clamped to the 2s sweep clock
	s.exit(3*sec, 0, "a")
	s.exit(4*sec, 1, "b")
	a, err := AnalyzeTrace(s.trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.OrderAnomalies(); got != 1 {
		t.Errorf("OrderAnomalies = %d, want 1", got)
	}
	sum := a.Summary()
	near(t, "DurationS", sum.DurationS, 4)
	// b's entry was clamped to t=2s: busy [2s,4s].
	near(t, "lane1 busy", sum.Lanes[1].BusyS, 2)
	if sum.OrderAnomalies != 1 {
		t.Errorf("summary OrderAnomalies = %d, want 1", sum.OrderAnomalies)
	}
}

func TestStackAnomaliesTolerated(t *testing.T) {
	s := newScript()
	sec := time.Second
	s.exit(0, 0, "orphan") // exit with empty stack
	s.enter(1*sec, 0, "a")
	s.exit(2*sec, 0, "b") // mismatched exit: ignored, a stays open
	s.exit(3*sec, 0, "a")
	a, err := AnalyzeTrace(s.trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.StackAnomalies(); got != 2 {
		t.Errorf("StackAnomalies = %d, want 2", got)
	}
	sum := a.Summary()
	near(t, "lane0 busy", sum.Lanes[0].BusyS, 2)

	// Enter/exit without a symbol table is also an anomaly, not a panic.
	b := New(Options{})
	if err := b.Add(0, nil, []trace.Event{{TS: 0, Kind: trace.KindEnter, FuncID: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := b.StackAnomalies(); got != 1 {
		t.Errorf("nil-sym StackAnomalies = %d, want 1", got)
	}
}

func TestDropAndSampleEvents(t *testing.T) {
	s := newScript()
	s.enter(0, 0, "a")
	s.events = append(s.events,
		trace.Event{TS: time.Second, Lane: 0, Kind: trace.KindSample, ValueC: 55},
		trace.Event{TS: 2 * time.Second, Lane: 0, Kind: trace.KindDrop, Aux: 7},
	)
	s.exit(3*time.Second, 0, "a")
	a, err := AnalyzeTrace(s.trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := a.Summary()
	if sum.DroppedEvents != 7 {
		t.Errorf("DroppedEvents = %d, want 7", sum.DroppedEvents)
	}
	if sum.Events != 4 {
		t.Errorf("Events = %d, want 4", sum.Events)
	}
	near(t, "lane0 busy", sum.Lanes[0].BusyS, 3)
}

func TestTimelineTracks(t *testing.T) {
	a, err := AnalyzeTrace(barrierScript().trace(), Options{Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	tracks := a.Tracks()
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d, want 2", len(tracks))
	}
	sec := time.Second
	want0 := []Segment{
		{Start: 0, End: 4 * sec, State: Busy, Func: "f"},
		{Start: 4 * sec, End: 8 * sec, State: Wait, Func: "MPI_Barrier"},
		{Start: 8 * sec, End: 10 * sec, State: Busy, Func: "g"},
	}
	want1 := []Segment{
		{Start: 0, End: 7 * sec, State: Busy, Func: "h"},
		{Start: 7 * sec, End: 8 * sec, State: Wait, Func: "MPI_Barrier"},
		{Start: 8 * sec, End: 10 * sec, State: Busy, Func: "g2"},
	}
	if !reflect.DeepEqual(tracks[0].Segments, want0) {
		t.Errorf("lane0 track:\n got %+v\nwant %+v", tracks[0].Segments, want0)
	}
	if !reflect.DeepEqual(tracks[1].Segments, want1) {
		t.Errorf("lane1 track:\n got %+v\nwant %+v", tracks[1].Segments, want1)
	}
}

func TestTimelineDisabledByDefault(t *testing.T) {
	a, err := AnalyzeTrace(barrierScript().trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr := a.Tracks(); tr != nil {
		t.Errorf("Tracks without Options.Timeline = %+v, want nil", tr)
	}
}

func TestTrackCapCoalesces(t *testing.T) {
	const cap = 4
	s := newScript()
	// 20 alternating 1s segments on one lane — far over the cap.
	for i := 0; i < 20; i++ {
		name := "even"
		if i%2 == 1 {
			name = "odd"
		}
		s.enter(time.Duration(i)*time.Second, 0, name)
		s.exit(time.Duration(i+1)*time.Second, 0, name)
	}
	a, err := AnalyzeTrace(s.trace(), Options{Timeline: true, MaxTrackSegments: cap})
	if err != nil {
		t.Fatal(err)
	}
	tracks := a.Tracks()
	segs := tracks[0].Segments
	if len(segs) > cap+1 { // +1: the open-state segment appended at read time
		t.Fatalf("track has %d segments, cap %d", len(segs), cap)
	}
	// Coverage must stay contiguous from the first event to the last.
	if segs[0].Start != 0 {
		t.Errorf("track starts at %v, want 0", segs[0].Start)
	}
	if end := segs[len(segs)-1].End; end != 20*time.Second {
		t.Errorf("track ends at %v, want 20s", end)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Start != segs[i-1].End {
			t.Errorf("gap between segments %d and %d: %v != %v", i-1, i, segs[i-1].End, segs[i].Start)
		}
	}
}

func TestAnalyzeTracesMergesNodes(t *testing.T) {
	sec := time.Second
	// Node 0 computes 1s then waits at the barrier until node 1 arrives
	// at t=4s: the cross-node stagger must charge node 1's work.
	n0 := newScript()
	n0.enter(0, 0, "work")
	n0.exit(1*sec, 0, "work")
	n0.enter(1*sec, 0, "MPI_Barrier")
	n0.exit(4*sec, 0, "MPI_Barrier")
	t0 := n0.trace()

	n1 := newScript()
	n1.enter(0, 0, "work")
	n1.exit(4*sec, 0, "work")
	n1.enter(4*sec, 0, "MPI_Barrier")
	n1.exit(4*sec+time.Millisecond, 0, "MPI_Barrier")
	t1 := n1.trace()
	t1.NodeID = 1

	a, err := AnalyzeTraces([]*trace.Trace{t0, t1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := a.Summary()
	if len(s.Lanes) != 2 {
		t.Fatalf("lanes = %d, want 2", len(s.Lanes))
	}
	st, ok := s.Straggler()
	if !ok || st.Node != 1 {
		t.Fatalf("Straggler = %+v, %v; want node 1", st, ok)
	}
	near(t, "straggler caused", st.CausedWaitS, 3)

	// "work" folds across nodes: 2 calls, and the serialization window
	// [1s,4s] belongs to node 1's instance.
	w, ok := s.Function("work")
	if !ok {
		t.Fatal("work missing")
	}
	if w.Calls != 2 {
		t.Errorf("work calls = %d, want 2", w.Calls)
	}
	near(t, "work serial", w.SerialS, 3)

	b, ok := s.Op("MPI_Barrier")
	if !ok {
		t.Fatal("MPI_Barrier missing")
	}
	if b.StragglerNode != 1 {
		t.Errorf("straggler node = %d, want 1", b.StragglerNode)
	}
	near(t, "barrier imbalance", b.ImbalanceS, 3.001-2*0.001)
}

func TestAnalyzeTraceErrors(t *testing.T) {
	if _, err := AnalyzeTrace(nil, Options{}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := AnalyzeTraces(nil, Options{}); err == nil {
		t.Error("empty trace set accepted")
	}
	if _, err := AnalyzeTraces([]*trace.Trace{nil}, Options{}); err == nil {
		t.Error("nil trace in set accepted")
	}
}

func TestUnknownSymbolSynthesizesName(t *testing.T) {
	sym := trace.NewSymTab()
	a := New(Options{})
	ev := []trace.Event{
		{TS: 0, Lane: 0, Kind: trace.KindEnter, FuncID: 42},
		{TS: time.Second, Lane: 0, Kind: trace.KindExit, FuncID: 42},
	}
	if err := a.Add(0, sym, ev); err != nil {
		t.Fatal(err)
	}
	if got := a.StackAnomalies(); got != 0 {
		t.Errorf("StackAnomalies = %d; unknown symbols are not stack anomalies", got)
	}
	sum := a.Summary()
	near(t, "lane busy", sum.Lanes[0].BusyS, 1)
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Off: "off", Busy: "busy", Wait: "wait", State(9): "State(9)"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", uint8(s), got, want)
		}
	}
}
