package tempest

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"tempest/internal/parser"
	"tempest/internal/trace"
)

// TestLiveSessionFoldedSinkMatches runs a real session — eight goroutine
// lanes recording nested calls on the wall clock, tempd sampling beside
// them, a drain every 5 ms — with a DrainSink that feeds each drained
// batch to a builder folded after every one, the way a collector node
// folds what a Shipper sends. The session's own builder keeps every span;
// the folded one must report the same profile, span lists aside, without
// a single late event: real drains are in order to within two batches.
func TestLiveSessionFoldedSinkMatches(t *testing.T) {
	core := trace.NewFold(nil)
	folded := parser.NewBuilderOn(core, 7, parser.Options{Unit: Fahrenheit})
	batches := 0
	s, err := NewLiveSession(LiveConfig{
		HwmonRoot:             filepath.Join(t.TempDir(), "none"),
		AllowSimulatedSensors: true,
		SampleRateHz:          400,
		NodeID:                7,
		DrainInterval:         5 * time.Millisecond,
		LaneBufferCap:         DefaultLaneBufferCap,
		DrainSink: func(events []trace.Event, sym *trace.SymTab) {
			core.SetSym(sym) // every drain hands out a later copy of the table
			if err := folded.Add(events); err != nil {
				t.Errorf("folded builder: %v", err)
			}
			folded.Fold()
			batches++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		lane := s.Lane()
		go func() {
			defer wg.Done()
			work := func() {
				x := 0.0
				for i := 0; i < 200; i++ {
					x += math.Sqrt(float64(i))
				}
				runtime.KeepAlive(x)
			}
			for i := 0; i < 400; i++ {
				_ = lane.Instrument(fmt.Sprintf("outer%d", i%3), func() {
					work()
					_ = lane.Instrument("inner", work)
					_ = lane.Instrument(fmt.Sprintf("outer%d", i%3), work) // recursion
					// Off the processor inside the call, so that samples land
					// in it and, on a two-core machine, the drain loop keeps
					// its 5 ms.
					time.Sleep(50 * time.Microsecond)
				})
			}
		}()
	}
	wg.Wait()
	p, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, err := folded.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := &p.Profile.Nodes[0]
	attributed, spans := 0, 0
	for i := range want.Functions {
		spans += len(want.Functions[i].Intervals)
		want.Functions[i].Intervals = nil
		for _, sum := range want.Functions[i].Sensors {
			attributed += sum.N
		}
	}
	for i := range got.Functions {
		got.Functions[i].Intervals = nil
	}
	t.Logf("%d events in %d batches, %d sample values attributed, %d of %d spans resident at the end, %d late",
		folded.Events(), batches, attributed, folded.Resident(), spans, folded.Late())
	if attributed == 0 || folded.Resident() == spans {
		t.Fatalf("the session did not exercise the fold")
	}
	if n := folded.Late(); n != 0 {
		t.Fatalf("%d late events from a real tracer", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("folded sink's profile differs from the session's own")
	}
}
