package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestWriterRejectedFlushKeepsDeltaBase: a batch Flush rejects was never
// written, so it must not move the base the next segment's timestamp
// deltas run from. The rejected batch here reaches 500 ms before its
// invalid event; an exit flushed afterwards at 700 ms used to read back
// shifted by the difference.
func TestWriterRejectedFlushKeepsDeltaBase(t *testing.T) {
	var buf bytes.Buffer
	sym := NewSymTab()
	f := sym.Register("f")
	w, err := NewWriter(&buf, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush([]Event{{Kind: KindEnter, FuncID: f, TS: 10 * time.Millisecond}}, sym); err != nil {
		t.Fatal(err)
	}
	err = w.Flush([]Event{
		{Kind: KindSample, ValueC: 40, TS: 500 * time.Millisecond},
		{Kind: EventKind(99), TS: 600 * time.Millisecond},
	}, sym)
	if err == nil {
		t.Fatal("Flush accepted an invalid event kind")
	}
	if err := w.Flush([]Event{{Kind: KindExit, FuncID: f, TS: 700 * time.Millisecond}}, sym); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 || tr.Events[1].TS != 700*time.Millisecond {
		t.Fatalf("read back %+v, want the exit at 700ms", tr.Events)
	}
	if w.Events() != 2 {
		t.Fatalf("writer counts %d events, want the 2 it wrote", w.Events())
	}
}

// randomEvents is a seeded stream of every kind whose timestamps wander
// backwards as well as forwards (lanes drained at different times), over
// a table of nsyms symbols.
func randomEvents(rng *rand.Rand, n, nsyms int) []Event {
	evs := make([]Event, n)
	ts := int64(time.Second)
	for i := range evs {
		ts = max(ts+rng.Int63n(2_000_000)-600_000, 0)
		e := Event{TS: time.Duration(ts), Lane: uint32(rng.Intn(2000))}
		switch rng.Intn(5) {
		case 0:
			e.Kind, e.FuncID = KindEnter, uint32(rng.Intn(nsyms))
		case 1:
			e.Kind, e.FuncID = KindExit, uint32(rng.Intn(nsyms))
		case 2:
			e.Kind, e.FuncID = KindMarker, uint32(rng.Intn(nsyms))
		case 3:
			e.Kind, e.SensorID = KindSample, uint32(rng.Intn(8))
			e.ValueC = float64(rng.Intn(200_000)-50_000) / 1000
		case 4:
			e.Kind, e.Aux = KindDrop, rng.Uint64()
		}
		evs[i] = e
	}
	return evs
}

// TestEncodersInvertDecoders: DecodeSymbols(AppendSymbols(…)) and
// DecodeEvents(AppendEvents(…)) are the identity — with negative deltas,
// a base timestamp carried in from an earlier batch, a symbol cursor
// mid-table and bytes already in dst.
func TestEncodersInvertDecoders(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sym := NewSymTab()
		nsyms := 1 + rng.Intn(40)
		for i := 0; i < nsyms; i++ {
			sym.Register(fmt.Sprintf("fn%d.%s", i, strings.Repeat("x", rng.Intn(200))))
		}
		from := rng.Intn(nsyms + 1)
		evs := randomEvents(rng, rng.Intn(300), nsyms)
		base := rng.Int63n(int64(2 * time.Second))

		prefix := []byte("already here")
		p, n, err := AppendSymbols(prefix, sym, from)
		if err != nil {
			t.Fatal(err)
		}
		if n != nsyms {
			t.Fatalf("seed %d: symbol cursor %d, want %d", seed, n, nsyms)
		}
		symEnd := len(p)
		p, last, err := AppendEvents(p, evs, base)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(p, prefix) {
			t.Fatalf("seed %d: dst's own bytes were overwritten", seed)
		}

		// The reader's table holds the names below the cursor already.
		got := NewSymTab()
		for _, name := range sym.Names()[:from] {
			got.Register(name)
		}
		rest, err := DecodeSymbols(p[len(prefix):symEnd], got)
		if err != nil || len(rest) != 0 {
			t.Fatalf("seed %d: DecodeSymbols: %d bytes left, err %v", seed, len(rest), err)
		}
		if !reflect.DeepEqual(got.Names(), sym.Names()) {
			t.Fatalf("seed %d: symbols from cursor %d decode to %q, want %q", seed, from, got.Names(), sym.Names())
		}
		back, ts, err := DecodeEvents(p[symEnd:], base, uint64(nsyms), nil)
		if err != nil {
			t.Fatalf("seed %d: DecodeEvents: %v", seed, err)
		}
		want := base
		if len(evs) > 0 {
			want = int64(evs[len(evs)-1].TS)
		}
		if ts != want || last != want {
			t.Fatalf("seed %d: carried timestamp %d (decoder) / %d (encoder), want the last event's %d", seed, ts, last, want)
		}
		if len(back) != len(evs) || (len(evs) > 0 && !reflect.DeepEqual(back, evs)) {
			t.Fatalf("seed %d: %d events decode to %d, or differ", seed, len(evs), len(back))
		}
	}

	sym := NewSymTab()
	sym.Register("only")
	if _, _, err := AppendSymbols(nil, sym, 2); err == nil || !strings.Contains(err.Error(), "symbol cursor 2 beyond table of 1") {
		t.Fatalf("cursor beyond the table: err = %v", err)
	}
	if _, _, err := AppendEvents(nil, []Event{{Kind: KindDrop, TS: -1}}, 0); err == nil {
		t.Fatal("negative timestamp encoded")
	}
}
