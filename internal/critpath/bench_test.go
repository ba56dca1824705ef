package critpath

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"tempest/internal/trace"
)

const benchLanes = 8

// genEvents produces n events over benchLanes lanes in canonical
// (TS, lane) order: each lane cycles enter compute → exit → enter
// MPI_Barrier → exit, the steady-state shape of an iterative MPI code.
func genEvents(n int) ([]trace.Event, *trace.SymTab) {
	sym := trace.NewSymTab()
	compute := make([]uint32, benchLanes)
	for i := range compute {
		compute[i] = sym.Register(fmt.Sprintf("compute_%d", i))
	}
	barrier := sym.Register("MPI_Barrier")
	evs := make([]trace.Event, n)
	for i := range evs {
		lane := uint32(i % benchLanes)
		e := &evs[i]
		e.TS = time.Duration(i) * time.Microsecond
		e.Lane = lane
		switch (i / benchLanes) % 4 {
		case 0:
			e.Kind, e.FuncID = trace.KindEnter, compute[lane]
		case 1:
			e.Kind, e.FuncID = trace.KindExit, compute[lane]
		case 2:
			e.Kind, e.FuncID = trace.KindEnter, barrier
		case 3:
			e.Kind, e.FuncID = trace.KindExit, barrier
		}
	}
	return evs, sym
}

// BenchmarkCritPath1M is one full 1M-event analysis per iteration,
// summary included, with the timeline off. That is what the _bench
// grid's critpath.add_ns_per_event and critpath.summary_ms cells price
// (the grid's probe builds critpath.New(critpath.Options{})); the
// collector runs with the timeline on, which BenchmarkCritPathTimeline1M
// prices. allocs/op is the memory pin — it counts analyzer state only
// (lanes, functions, ops), not events, so it must stay in the hundreds
// however many events flow.
func BenchmarkCritPath1M(b *testing.B) {
	const n = 1 << 20
	evs, sym := genEvents(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(Options{})
		if err := a.Add(1, sym, evs); err != nil {
			b.Fatal(err)
		}
		if s := a.Summary(); s.Events != n {
			b.Fatalf("consumed %d events, want %d", s.Events, n)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkCritPathTimeline1M is the same analysis with bounded
// timeline tracks enabled — the collector's live configuration
// (Timeline: true, MaxTrackSegments: 512). No grid cell prices it yet.
func BenchmarkCritPathTimeline1M(b *testing.B) {
	const n = 1 << 20
	evs, sym := genEvents(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(Options{Timeline: true, MaxTrackSegments: 512})
		if err := a.Add(1, sym, evs); err != nil {
			b.Fatal(err)
		}
		if s := a.Summary(); s.Events != n {
			b.Fatalf("consumed %d events, want %d", s.Events, n)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// TestStreamBatchIdentity1M is the acceptance pin: streaming a 1M-event
// trace through chunked Adds produces byte-identical output to the
// whole-trace analysis, and the analyzer's footprint stays O(lanes):
// steady-state Add allocates nothing per batch.
func TestStreamBatchIdentity1M(t *testing.T) {
	const n = 1 << 20
	evs, sym := genEvents(n)
	opts := Options{Timeline: true, MaxTrackSegments: 256}

	batch := New(opts)
	if err := batch.Add(1, sym, evs); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(batch.Summary())
	if err != nil {
		t.Fatal(err)
	}

	stream := New(opts)
	const chunk = 4096
	for i := 0; i < len(evs); i += chunk {
		end := i + chunk
		if end > len(evs) {
			end = len(evs)
		}
		if err := stream.Add(1, sym, evs[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := json.Marshal(stream.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("streamed summary differs from batch over 1M events")
	}
	bt, st := batch.Tracks(), stream.Tracks()
	wt, _ := json.Marshal(bt)
	gt, _ := json.Marshal(st)
	if string(wt) != string(gt) {
		t.Error("streamed tracks differ from batch over 1M events")
	}
	if len(bt) != benchLanes {
		t.Errorf("tracks = %d lanes, want %d", len(bt), benchLanes)
	}
	for _, tr := range bt {
		if len(tr.Segments) > 256 {
			t.Errorf("lane %d track has %d segments, cap 256", tr.Lane, len(tr.Segments))
		}
	}
}

// TestSteadyStateAddAllocates pins the O(lanes) memory claim at the
// allocation level: once every lane, function and op has been interned,
// feeding more batches allocates nothing — with the timeline off, and
// under the collector's options once every lane's track has filled and
// halved (the warm-up gives each lane 4k transitions against a cap of
// 512).
func TestSteadyStateAddAllocates(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"summary", Options{}},
		{"collector", Options{Timeline: true, MaxTrackSegments: 512}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			evs, sym := genEvents(1 << 16)
			a := New(opts)
			warm := len(evs) / 2
			if err := a.Add(1, sym, evs[:warm]); err != nil {
				t.Fatal(err)
			}
			if opts.Timeline {
				// A lane transitions every 8 µs, so a first segment
				// any longer is a merged pair: the track has halved.
				for _, tr := range a.Tracks() {
					if s := tr.Segments[0]; s.End-s.Start <= 8*time.Microsecond {
						t.Fatalf("lane %d has not halved its track after warm-up", tr.Lane)
					}
				}
			}
			rest := evs[warm:]
			avg := testing.AllocsPerRun(8, func() {
				if err := a.Add(1, sym, rest); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 0.5 {
				t.Errorf("steady-state Add allocates %.1f objects per 32k-event batch, want 0", avg)
			}
		})
	}
}
