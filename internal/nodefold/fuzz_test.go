package nodefold

import (
	"encoding/json"
	"reflect"
	"testing"

	"tempest/internal/critpath"
	"tempest/internal/parser"
	"tempest/internal/trace"
	"tempest/internal/tracegen"
)

// FuzzNode holds Add, fed in batches, to the standalone folds of the same
// stream. It stops at the event a standalone Builder refuses; the analyzer
// has then seen exactly the events before it, so its summary and tracks
// are a standalone analyzer's over that prefix. The strict Builder
// poisons on the stack violations the analyzer merely counts: on a stream
// it accepts whole the analyzer counts none, and it accepts no function
// outside the symbol table, which the analyzer survives under a made-up
// name.
func FuzzNode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 10, 3, 0, 0, 20})                       // enter/exit pair
	f.Add([]byte{3, 0, 0, 0})                                     // orphan exit
	f.Add([]byte{0, 0, 5, 10, 0, 1, 1, 0x85, 3, 1, 1, 2})         // wait + regression
	f.Add([]byte{0, 0, 9, 1, 3, 0, 9, 1, 6, 2, 9, 1, 7, 3, 4, 1}) // unknown fid, marker, drop
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, sym := tracegen.FuzzEvents(data)
		bld := parser.NewBuilder(1, sym, parser.Options{Unit: parser.Celsius})
		berr := bld.Add(evs)
		n := New(1, sym, parser.Celsius, false, true)
		var err error
		for i := 0; i < len(evs) && err == nil; i += 3 {
			err = n.Add(evs[i:min(i+3, len(evs))])
		}
		took := n.Builder.Events()
		if took != bld.Events() || (err == nil) != (berr == nil) {
			t.Fatalf("node took %d events (err %v), standalone Builder %d (err %v)", took, err, bld.Events(), berr)
		}
		prefix := critpath.New(critpath.Options{Timeline: true, MaxTrackSegments: CritTrackCap})
		if err := prefix.Add(1, sym, evs[:took]); err != nil {
			t.Fatalf("prefix Add: %v", err)
		}
		wantJSON, _ := json.Marshal(prefix.Summary())
		gotJSON, _ := json.Marshal(n.Crit.Summary())
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("node summary != standalone over the same %d events:\n got %s\nwant %s", took, gotJSON, wantJSON)
		}
		if !reflect.DeepEqual(n.Crit.Tracks(), prefix.Tracks()) {
			t.Fatal("node tracks != standalone tracks")
		}
		if berr != nil {
			return
		}
		if a := n.Crit.StackAnomalies(); a != 0 {
			t.Fatalf("Builder accepted the stream but the analyzer counted %d stack anomalies", a)
		}
		for _, e := range evs {
			if (e.Kind == trace.KindEnter || e.Kind == trace.KindExit) && int(e.FuncID) >= sym.Len() {
				t.Fatal("Builder accepted a function id outside the symbol table")
			}
		}
		wantNP, err1 := bld.Finish()
		gotNP, err2 := n.Builder.Finish()
		if err1 != nil || err2 != nil || !reflect.DeepEqual(gotNP, wantNP) {
			t.Fatalf("node profile != standalone profile (%v, %v)", err1, err2)
		}
	})
}
