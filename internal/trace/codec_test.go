package trace

import (
	"bytes"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"tempest/internal/vclock"
)

func sampleTrace(t *testing.T) *Trace {
	t.Helper()
	clk := vclock.NewVirtualClock()
	tr, err := NewTracer(Config{Clock: clk, NodeID: 3})
	if err != nil {
		t.Fatal(err)
	}
	lane := tr.NewLane()
	foo := tr.RegisterFunc("foo1")
	bar := tr.RegisterFunc("foo2")
	lane.Enter(foo)
	clk.Advance(time.Second)
	tr.Sample(0, 39.25)
	tr.Sample(1, 34.0)
	clk.Advance(time.Second)
	lane.Enter(bar)
	clk.Advance(500 * time.Millisecond)
	_ = lane.Exit(bar)
	tr.Marker("sync")
	_ = lane.Exit(foo)
	trc := tr.Finish()
	trc.Rank = 1
	return trc
}

func TestRoundTrip(t *testing.T) {
	orig := sampleTrace(t)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeID != orig.NodeID || got.Rank != orig.Rank {
		t.Errorf("identity = %d/%d, want %d/%d", got.NodeID, got.Rank, orig.NodeID, orig.Rank)
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Errorf("events differ:\n got %+v\nwant %+v", got.Events, orig.Events)
	}
	if !reflect.DeepEqual(got.Sym.Names(), orig.Sym.Names()) {
		t.Errorf("symbols differ: %v vs %v", got.Sym.Names(), orig.Sym.Names())
	}
}

func TestRoundTripEmptyTrace(t *testing.T) {
	orig := &Trace{NodeID: 7, Rank: 9, Sym: NewSymTab()}
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeID != 7 || got.Rank != 9 || len(got.Events) != 0 || got.Sym.Len() != 0 {
		t.Errorf("empty round trip: %+v", got)
	}
}

func TestRoundTripNilSym(t *testing.T) {
	orig := &Trace{NodeID: 1}
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRejectsUnsortedEvents(t *testing.T) {
	tr := &Trace{
		Sym: NewSymTab(),
		Events: []Event{
			{Kind: KindMarker, TS: time.Second},
			{Kind: KindMarker, TS: time.Millisecond},
		},
	}
	tr.Sym.Register("m")
	var buf bytes.Buffer
	if err := tr.Write(&buf); err == nil {
		t.Error("unsorted events should be rejected")
	}
}

func TestWriteRejectsInvalidEvent(t *testing.T) {
	tr := &Trace{Sym: NewSymTab(), Events: []Event{{Kind: 42}}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err == nil {
		t.Error("invalid kind should be rejected")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a trace"),
		{0x54, 0x50, 0x53}, // truncated magic
	}
	for i, b := range cases {
		if _, err := ReadTrace(bytes.NewReader(b)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	orig := &Trace{Sym: NewSymTab()}
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 0xFF // corrupt version
	if _, err := ReadTrace(bytes.NewReader(b)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad version err = %v", err)
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	orig := sampleTrace(t)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail cleanly, not panic.
	for cut := 0; cut < len(full); cut += 3 {
		if _, err := ReadTrace(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("prefix of %d bytes parsed successfully", cut)
		}
	}
}

func TestReadRejectsDanglingFuncID(t *testing.T) {
	tr := &Trace{Sym: NewSymTab(), Events: []Event{{Kind: KindEnter, FuncID: 5}}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); !errors.Is(err, ErrBadFormat) {
		t.Errorf("dangling func id err = %v", err)
	}
}

// Property: any structurally valid, time-sorted event sequence round-trips
// exactly (temperatures quantised to milli-degrees).
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sym := NewSymTab()
		for i := 0; i < 5; i++ {
			sym.Register(string(rune('a' + i)))
		}
		var ts time.Duration
		events := make([]Event, 0, n)
		for i := 0; i < int(n); i++ {
			ts += time.Duration(rng.Intn(1e6)) * time.Nanosecond
			e := Event{TS: ts, Lane: uint32(rng.Intn(4))}
			switch rng.Intn(4) {
			case 0:
				e.Kind = KindEnter
				e.FuncID = uint32(rng.Intn(5))
			case 1:
				e.Kind = KindExit
				e.FuncID = uint32(rng.Intn(5))
			case 2:
				e.Kind = KindSample
				e.SensorID = uint32(rng.Intn(7))
				e.ValueC = float64(rng.Intn(120000)-20000) / 1000 // -20..100 °C, milli steps
			case 3:
				e.Kind = KindDrop
				e.Aux = uint64(rng.Intn(1000))
			}
			events = append(events, e)
		}
		orig := &Trace{NodeID: uint32(rng.Intn(16)), Rank: uint32(rng.Intn(64)), Events: events, Sym: sym}
		var buf bytes.Buffer
		if err := orig.Write(&buf); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Events, orig.Events) &&
			got.NodeID == orig.NodeID && got.Rank == orig.Rank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompactness(t *testing.T) {
	// Delta-encoding should keep a dense enter/exit stream near 5
	// bytes/event, far below a naive 30-byte fixed record.
	clk := vclock.NewVirtualClock()
	tr, _ := NewTracer(Config{Clock: clk, LaneBufferCap: 1 << 20})
	lane := tr.NewLane()
	f := tr.RegisterFunc("f")
	for i := 0; i < 10000; i++ {
		clk.Advance(time.Microsecond)
		lane.Enter(f)
		clk.Advance(time.Microsecond)
		_ = lane.Exit(f)
	}
	trc := tr.Finish()
	var buf bytes.Buffer
	if err := trc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	perEvent := float64(buf.Len()) / float64(len(trc.Events))
	if perEvent > 8 {
		t.Errorf("%.1f bytes/event, want ≤8", perEvent)
	}
}

func TestSymTabErrors(t *testing.T) {
	s := NewSymTab()
	if _, err := s.Name(0); err == nil {
		t.Error("unknown id should fail")
	}
	if _, err := s.Addr(0); err == nil {
		t.Error("unknown id should fail")
	}
}

func BenchmarkTraceWrite(b *testing.B) {
	clk := vclock.NewVirtualClock()
	tr, _ := NewTracer(Config{Clock: clk, LaneBufferCap: 1 << 20})
	lane := tr.NewLane()
	f := tr.RegisterFunc("f")
	for i := 0; i < 100000; i++ {
		clk.Advance(time.Microsecond)
		lane.Enter(f)
		_ = lane.Exit(f)
	}
	trc := tr.Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trc.Write(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceRead(b *testing.B) {
	clk := vclock.NewVirtualClock()
	tr, _ := NewTracer(Config{Clock: clk, LaneBufferCap: 1 << 20})
	lane := tr.NewLane()
	f := tr.RegisterFunc("f")
	for i := 0; i < 100000; i++ {
		clk.Advance(time.Microsecond)
		lane.Enter(f)
		_ = lane.Exit(f)
	}
	trc := tr.Finish()
	var buf bytes.Buffer
	if err := trc.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTrace(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/v1.tpst")

// v1GoldenTrace has every event kind, lane and sensor ids past one varint
// byte, a negative sample, a large drop count and a long Δts, followed by
// a run long enough to cross the writer's flush threshold several times.
func v1GoldenTrace() *Trace {
	sym := NewSymTab()
	f, g := sym.Register("main"), sym.Register("solve")
	evs := []Event{
		{Kind: KindEnter, Lane: 0, TS: 0, FuncID: f},
		{Kind: KindSample, SensorID: 1, ValueC: 39.25, TS: time.Millisecond},
		{Kind: KindEnter, Lane: 700, TS: time.Millisecond, FuncID: g},
		{Kind: KindSample, SensorID: 200, ValueC: -12.3456, TS: 250 * time.Millisecond},
		{Kind: KindMarker, Lane: 0, TS: time.Second, FuncID: f},
		{Kind: KindDrop, Lane: 700, TS: time.Second, Aux: 1 << 40},
		{Kind: KindExit, Lane: 700, TS: 90 * time.Minute, FuncID: g},
	}
	ts := 90 * time.Minute
	for i := 0; i < 2000; i++ {
		ts += time.Duration(i%977) * time.Microsecond
		evs = append(evs, Event{Kind: KindEnter + EventKind(i%2), Lane: uint32(i % 3), TS: ts, FuncID: g})
	}
	evs = append(evs, Event{Kind: KindExit, Lane: 0, TS: ts + 1, FuncID: f})
	return &Trace{NodeID: 300, Rank: 2, Sym: sym, Events: evs}
}

// TestWriteV1Golden pins the bytes Trace.Write emits: the v1 format
// cmd/tempest -trace-dir writes. Regenerate with -update only when the
// format itself changes.
func TestWriteV1Golden(t *testing.T) {
	var buf bytes.Buffer
	if err := v1GoldenTrace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "v1.tpst")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Trace.Write emitted %d bytes that differ from the %d in %s", buf.Len(), len(want), path)
	}
}
