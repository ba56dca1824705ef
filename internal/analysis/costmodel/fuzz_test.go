package costmodel

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParsePlan drives the plan decoder — what `tempest-collectd
// -policy-priors` reads from disk — with arbitrary bytes: ParsePlan never
// panics, and a plan it accepts is a fixed point: written the way
// WriteJSON writes it and parsed again, it comes back deeply equal.
func FuzzParsePlan(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "..", "cmd", "tempest-instrument", "testdata", "autoinstr_plan.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"entries":null}`))
	// Invalid UTF-8, a key in the wrong case, negative zero, a huge float.
	f.Add([]byte("{\"budget\":-0,\"entries\":[{\"sym\":\"a\xff\",\"MODE\":\"skip\",\"freq\":1e308}]}"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := ParsePlan(raw)
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "plan.json")
		if err := p.WriteJSON(path); err != nil {
			t.Fatalf("accepted plan does not write: %v", err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParsePlan(again)
		if err != nil {
			t.Fatalf("written plan does not parse: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("plan is not a fixed point:\n got %+v\nwant %+v", back, p)
		}
	})
}
