package critpath

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tempest/internal/parser"
	"tempest/internal/trace"
	"tempest/internal/tracegen"
)

// foldBoth runs one stream through a standalone Builder and Analyzer.
func foldBoth(t *testing.T, sym *trace.SymTab, evs []trace.Event) (*parser.NodeProfile, *Analyzer) {
	t.Helper()
	b := parser.NewBuilder(1, sym, parser.Options{})
	if err := b.Add(evs); err != nil {
		t.Fatal(err)
	}
	np, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	a := New(Options{Timeline: true, MaxTrackSegments: 64})
	if err := a.Add(1, sym, evs); err != nil {
		t.Fatal(err)
	}
	return np, a
}

// TestSparseLaneIDsFoldLikeDenseOnes: lane ids are labels. The same
// eight-lane stream carried on ids 0…7 and on ids spread from 1<<31 up
// (order kept, so (TS, lane) ties break the same way) gives the same
// profile and — once the labels are mapped back — the same critical-path
// summary and timeline.
func TestSparseLaneIDsFoldLikeDenseOnes(t *testing.T) {
	const n = 200_000
	sparse := func(i int) uint32 { return 1<<31 + uint32(i)*100_003 }
	dg := tracegen.New(tracegen.Config{Seed: 7, Lanes: 8})
	sg := tracegen.New(tracegen.Config{Seed: 7, Lanes: 8, LaneID: sparse})
	dense, scattered := dg.Fill(nil, n), sg.Fill(nil, n)

	wantNP, wantA := foldBoth(t, dg.Sym(), dense)
	gotNP, gotA := foldBoth(t, sg.Sym(), scattered)
	if !reflect.DeepEqual(gotNP, wantNP) {
		t.Error("profile over sparse lane ids differs from the dense one")
	}
	gotSum, gotTracks := gotA.Summary(), gotA.Tracks()
	if len(gotSum.Lanes) != 8 || len(gotTracks) != 8 {
		t.Fatalf("%d lanes, %d tracks; want 8 each", len(gotSum.Lanes), len(gotTracks))
	}
	for i := range gotSum.Lanes {
		if gotSum.Lanes[i].Lane != sparse(i) || gotTracks[i].Lane != sparse(i) {
			t.Fatalf("lane %d carries id %d / %d, want %d", i, gotSum.Lanes[i].Lane, gotTracks[i].Lane, sparse(i))
		}
		gotSum.Lanes[i].Lane, gotTracks[i].Lane = uint32(i), uint32(i)
	}
	for i := range gotSum.Ops {
		gotSum.Ops[i].StragglerLane = (gotSum.Ops[i].StragglerLane - 1<<31) / 100_003
	}
	want, _ := json.Marshal(wantA.Summary())
	got, _ := json.Marshal(gotSum)
	if string(got) != string(want) {
		t.Errorf("summary over sparse lane ids differs:\n got %s\nwant %s", got, want)
	}
	if !reflect.DeepEqual(gotTracks, wantA.Tracks()) {
		t.Error("timeline over sparse lane ids differs from the dense one")
	}
}

// TestManySparseLanesCostHeapPerLane: 10⁵ distinct lanes scattered over
// the id space, one call each, fold to the profile and per-lane split the
// same calls give on lanes 0…10⁵−1, and the two consumers' heap grows
// with the number of lanes — a table sized by the largest id (≈ 1<<32
// entries) could not be allocated at all.
func TestManySparseLanesCostHeapPerLane(t *testing.T) {
	const lanes = 100_000
	sym := trace.NewSymTab()
	work, wait := sym.Register("work"), sym.Register("MPI_Recv")
	stream := func(id func(i uint32) uint32) []trace.Event {
		evs := make([]trace.Event, 0, 2*lanes)
		for i := uint32(0); i < lanes; i++ {
			fid := work
			if i%4 == 3 {
				fid = wait
			}
			ts := time.Duration(i) * time.Microsecond
			evs = append(evs,
				trace.Event{Kind: trace.KindEnter, Lane: id(i), FuncID: fid, TS: ts},
				trace.Event{Kind: trace.KindExit, Lane: id(i), FuncID: fid, TS: ts + time.Microsecond/2})
		}
		return evs
	}
	dense := stream(func(i uint32) uint32 { return i })
	scattered := stream(func(i uint32) uint32 { return 5000 + i*42_900 })

	wantNP, wantA := foldBoth(t, sym, dense)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gotNP, gotA := foldBoth(t, sym, scattered)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > lanes*1024 {
		t.Errorf("heap grew %d B folding %d sparse lanes (%d B/lane), want at most 1 KiB/lane", grown, lanes, grown/lanes)
	}

	if !reflect.DeepEqual(gotNP, wantNP) {
		t.Error("profile over 10⁵ sparse lanes differs from the dense one")
	}
	want, got := wantA.Summary(), gotA.Summary()
	if len(got.Lanes) != lanes {
		t.Fatalf("%d lanes in the summary, want %d", len(got.Lanes), lanes)
	}
	for i := range got.Lanes {
		got.Lanes[i].Lane = uint32(i)
	}
	for i := range got.Ops {
		got.Ops[i].StragglerLane = (got.Ops[i].StragglerLane - 5000) / 42_900
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("summary over 10⁵ sparse lanes differs from the dense one")
	}
	runtime.KeepAlive(gotA)
}
