package critpath

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"tempest/internal/parser"
	"tempest/internal/trace"
)

// fuzzEvents decodes fuzz bytes into an event stream over a fixed symbol
// table: 4 bytes per event choose kind, lane, function and a timestamp
// delta (high bit = deliberate regression). Function ids above the
// registered range exercise the unknown-symbol path.
func fuzzEvents(data []byte) ([]trace.Event, *trace.SymTab) {
	sym := trace.NewSymTab()
	names := []string{"alpha", "beta", "gamma", "delta", "main",
		"MPI_Barrier", "MPI_Allreduce", "MPI_Send"}
	fids := make([]uint32, len(names))
	for i, n := range names {
		fids[i] = sym.Register(n)
	}
	var evs []trace.Event
	var ts time.Duration
	for i := 0; i+3 < len(data); i += 4 {
		var fid uint32
		if sel := int(data[i+2]) % (len(fids) + 2); sel < len(fids) {
			fid = fids[sel]
		} else {
			fid = uint32(100 + sel) // unresolvable on purpose
		}
		e := trace.Event{
			Lane:   uint32(data[i+1]) % 5,
			FuncID: fid,
		}
		switch data[i] % 8 {
		case 0, 1, 2:
			e.Kind = trace.KindEnter
		case 3, 4, 5:
			e.Kind = trace.KindExit
		case 6:
			e.Kind = trace.KindMarker
		default:
			e.Kind = trace.KindDrop
			e.Aux = uint64(data[i+2])
		}
		d := time.Duration(data[i+3]&0x3f) * time.Millisecond
		if data[i+3]&0x80 != 0 {
			ts -= d // cross-lane regression: must clamp, not corrupt
			if ts < 0 {
				ts = 0
			}
		} else {
			ts += d
		}
		e.TS = ts
		evs = append(evs, e)
	}
	return evs, sym
}

// FuzzCritPath pins the analyzer's robustness contract:
//
//  1. never panic, whatever the stream shape;
//  2. deterministic: chunked Add == whole-batch Add, byte for byte;
//  3. consistent with the Builder's stack discipline: any stream the
//     strict Builder accepts has zero StackAnomalies here.
func FuzzCritPath(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 10, 3, 0, 0, 20})                       // enter/exit pair
	f.Add([]byte{3, 0, 0, 0})                                     // orphan exit
	f.Add([]byte{0, 0, 5, 10, 0, 1, 1, 0x85, 3, 1, 1, 2})         // wait + regression
	f.Add([]byte{0, 0, 9, 1, 3, 0, 9, 1, 6, 2, 9, 1, 7, 3, 4, 1}) // unknown fid, marker, drop
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, sym := fuzzEvents(data)
		opts := Options{Timeline: true, MaxTrackSegments: 8}

		whole := New(opts)
		if err := whole.Add(1, sym, evs); err != nil {
			t.Fatalf("Add: %v", err)
		}
		sum := whole.Summary()
		wantJSON, err := json.Marshal(sum)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if sum.Events != uint64(len(evs)) {
			t.Fatalf("Events = %d, want %d", sum.Events, len(evs))
		}
		if sum.DurationS < 0 || sum.SerialS < 0 {
			t.Fatalf("negative totals: %s", wantJSON)
		}
		for _, l := range sum.Lanes {
			if l.BusyS < -1e-9 || l.WaitS < -1e-9 || l.OffS < -1e-9 {
				t.Fatalf("negative lane split: %+v", l)
			}
		}

		// Determinism under chunking.
		chunked := New(opts)
		for i := 0; i < len(evs); i += 3 {
			end := i + 3
			if end > len(evs) {
				end = len(evs)
			}
			if err := chunked.Add(1, sym, evs[i:end]); err != nil {
				t.Fatalf("chunked Add: %v", err)
			}
		}
		gotJSON, err := json.Marshal(chunked.Summary())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("chunked != batch:\n got %s\nwant %s", gotJSON, wantJSON)
		}
		if !reflect.DeepEqual(chunked.Tracks(), whole.Tracks()) {
			t.Fatal("chunked tracks != batch tracks")
		}

		// Builder-consistency: the strict Builder poisons on the stack
		// violations the analyzer merely counts. If it accepted the whole
		// stream, the analyzer must have counted none — and it accepts no
		// stream that names a function outside the symbol table, which
		// the analyzer survives under a made-up name.
		unknown := false
		for _, e := range evs {
			if (e.Kind == trace.KindEnter || e.Kind == trace.KindExit) && int(e.FuncID) >= sym.Len() {
				unknown = true
			}
		}
		bld := parser.NewBuilder(1, sym, parser.Options{})
		berr := bld.Add(evs)
		if berr == nil && whole.StackAnomalies() != 0 {
			t.Fatalf("Builder accepted stream but analyzer counted %d stack anomalies",
				whole.StackAnomalies())
		}
		if berr == nil && unknown {
			t.Fatal("Builder accepted a function id outside the symbol table")
		}

		// One pass: a single core stepped once per event, both consumers
		// applied, is the two standalone folds — up to the event the
		// Builder refuses, which the analyzer then never sees.
		core := trace.NewFold(sym)
		shared := parser.NewBuilderOn(core, 1, parser.Options{})
		onePass := New(opts)
		took := 0
		for i := range evs {
			m := core.Step(&evs[i])
			if shared.Apply(&evs[i], m) != nil {
				break
			}
			onePass.Apply(1, core, &evs[i], m)
			took++
		}
		if uint64(took) != bld.Events() || (shared.Err() == nil) != (berr == nil) {
			t.Fatalf("one pass took %d events (err %v), standalone Builder %d (err %v)",
				took, shared.Err(), bld.Events(), berr)
		}
		prefix := New(opts)
		if err := prefix.Add(1, sym, evs[:took]); err != nil {
			t.Fatalf("prefix Add: %v", err)
		}
		wantJSON, _ = json.Marshal(prefix.Summary())
		gotJSON, _ = json.Marshal(onePass.Summary())
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("one-pass summary != standalone over the same %d events:\n got %s\nwant %s", took, gotJSON, wantJSON)
		}
		if !reflect.DeepEqual(onePass.Tracks(), prefix.Tracks()) {
			t.Fatal("one-pass tracks != standalone tracks")
		}
		if berr == nil {
			wantNP, err1 := bld.Finish()
			gotNP, err2 := shared.Finish()
			if err1 != nil || err2 != nil || !reflect.DeepEqual(gotNP, wantNP) {
				t.Fatalf("one-pass profile != standalone profile (%v, %v)", err1, err2)
			}
		}
	})
}
