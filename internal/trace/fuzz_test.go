package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"time"

	"tempest/internal/vclock"
)

// fuzzSeedTrace builds one small real trace for seeding the fuzzers.
func fuzzSeedTrace(f *testing.F) *Trace {
	f.Helper()
	clk := vclock.NewVirtualClock()
	tr, err := NewTracer(Config{Clock: clk, NodeID: 1})
	if err != nil {
		f.Fatal(err)
	}
	lane := tr.NewLane()
	fid := tr.RegisterFunc("fuzzed")
	lane.Enter(fid)
	clk.Advance(time.Second)
	tr.Sample(0, 39.5)
	_ = lane.Exit(fid)
	return tr.Finish()
}

// FuzzReadTrace hardens the codec against hostile or corrupted trace
// files: any byte string must either parse into a structurally valid
// trace or fail with an error — never panic, never hang, never allocate
// unboundedly.
func FuzzReadTrace(f *testing.F) {
	// Seed with a real trace and a few mutations.
	var buf bytes.Buffer
	if err := fuzzSeedTrace(f).Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("TPST"))
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(truncated)
	corrupted := append([]byte(nil), valid...)
	if len(corrupted) > 10 {
		corrupted[8] ^= 0xFF
	}
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return // rejecting is always acceptable
		}
		// Accepted traces must be structurally sound.
		for i, e := range got.Events {
			if e.Valid() != nil {
				t.Fatalf("event %d invalid after successful parse: %+v", i, e)
			}
			switch e.Kind {
			case KindEnter, KindExit, KindMarker:
				if _, err := got.Sym.Name(e.FuncID); err != nil {
					t.Fatalf("event %d references unknown symbol", i)
				}
			}
		}
		// And must round-trip.
		var out bytes.Buffer
		if err := got.Write(&out); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
	})
}

// FuzzScanner hardens the streaming segment reader: on any byte string it
// must never panic, and its accumulated result must agree exactly with
// ReadTrace's salvage on the same bytes — same acceptance, same events,
// same truncation verdict.
func FuzzScanner(f *testing.F) {
	seed := fuzzSeedTrace(f)
	var v1, v2, v2big bytes.Buffer
	if err := seed.Write(&v1); err != nil {
		f.Fatal(err)
	}
	if err := seed.WriteSegmented(&v2, 1); err != nil {
		f.Fatal(err)
	}
	if err := seed.WriteSegmented(&v2big, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add(v2big.Bytes())
	f.Add([]byte{})
	f.Add([]byte("TPST"))
	torn := append([]byte(nil), v2.Bytes()...)
	f.Add(torn[:len(torn)*2/3])
	flipped := append([]byte(nil), v2.Bytes()...)
	if len(flipped) > 12 {
		flipped[len(flipped)-3] ^= 0x40
	}
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, scErr := NewScanner(bytes.NewReader(data))
		want, readErr := ReadTrace(bytes.NewReader(data))
		if (scErr == nil) != (readErr == nil) {
			t.Fatalf("header acceptance diverged: scanner %v, ReadTrace %v", scErr, readErr)
		}
		if scErr != nil {
			return
		}
		var got []Event
		var nextErr error
		for {
			var batch []Event
			batch, nextErr = sc.Next()
			if nextErr != nil {
				break
			}
			for _, e := range batch {
				if e.Valid() != nil {
					t.Fatalf("scanner yielded invalid event %+v", e)
				}
			}
			got = append(got, batch...)
		}
		if nextErr == io.EOF {
			if readErr != nil {
				t.Fatalf("scanner salvaged but ReadTrace errored: %v", readErr)
			}
			if sc.Version() == 2 {
				sortEvents(got)
			}
			if len(got) != len(want.Events) || (len(got) > 0 && !reflect.DeepEqual(got, want.Events)) {
				t.Fatalf("events diverge: scanner %d, ReadTrace %d", len(got), len(want.Events))
			}
			if sc.Truncated() != want.Truncated {
				t.Fatalf("truncated: scanner %v, ReadTrace %v", sc.Truncated(), want.Truncated)
			}
		} else if readErr == nil {
			t.Fatalf("scanner errored (%v) where ReadTrace accepted", nextErr)
		}
	})
}

// refParseSymbolSegment and refParseEventSegment are the Scanner's segment
// parsers as they stood before the slice-cursor decoders replaced them —
// every varint through binary.ReadUvarint on an io.ByteReader — kept as
// the reference FuzzSegmentDecode compares against.
func refParseSymbolSegment(payload []byte, sym *SymTab) bool {
	buf := bytes.NewBuffer(payload)
	n, err := binary.ReadUvarint(buf)
	if err != nil || n > 1<<24 {
		return false
	}
	base := sym.Len()
	for i := uint64(0); i < n; i++ {
		if _, err := binary.ReadUvarint(buf); err != nil { // addr: regenerated
			return false
		}
		nameLen, err := binary.ReadUvarint(buf)
		if err != nil || nameLen > 1<<16 {
			return false
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(buf, name); err != nil {
			return false
		}
		if got := sym.Register(string(name)); int(got) != base+int(i) {
			return false // duplicate across segments
		}
	}
	return buf.Len() == 0
}

func refParseEventSegment(payload []byte, prevTS int64, nsyms uint64) ([]Event, int64, bool) {
	buf := bytes.NewBuffer(payload)
	n, err := binary.ReadUvarint(buf)
	if err != nil || n > 1<<32 {
		return nil, 0, false
	}
	batch := make([]Event, 0, eventCap(n))
	ts := prevTS
	for i := uint64(0); i < n; i++ {
		kindB, err := buf.ReadByte()
		if err != nil {
			return nil, 0, false
		}
		e := Event{Kind: EventKind(kindB)}
		lane, err := binary.ReadUvarint(buf)
		if err != nil {
			return nil, 0, false
		}
		e.Lane = uint32(lane)
		dts, err := binary.ReadVarint(buf)
		if err != nil {
			return nil, 0, false
		}
		ts += dts
		if ts < 0 {
			return nil, 0, false
		}
		e.TS = time.Duration(ts)
		switch e.Kind {
		case KindEnter, KindExit, KindMarker:
			fid, err := binary.ReadUvarint(buf)
			if err != nil || fid >= nsyms {
				return nil, 0, false
			}
			e.FuncID = uint32(fid)
		case KindSample:
			sid, err := binary.ReadUvarint(buf)
			if err != nil {
				return nil, 0, false
			}
			e.SensorID = uint32(sid)
			milli, err := binary.ReadVarint(buf)
			if err != nil {
				return nil, 0, false
			}
			e.ValueC = float64(milli) / 1000
		case KindDrop:
			aux, err := binary.ReadUvarint(buf)
			if err != nil {
				return nil, 0, false
			}
			e.Aux = aux
		default:
			return nil, 0, false
		}
		batch = append(batch, e)
	}
	if buf.Len() != 0 {
		return nil, 0, false
	}
	return batch, ts, true
}

// FuzzSegmentDecode holds DecodeSymbols and DecodeEvents to the
// reader-based segment parsers they replaced: on arbitrary payload bytes,
// read as either segment kind, both accept or both reject; accepted event
// segments yield the same events and the same carried timestamp, and
// symbol segments leave the same table behind, accepted or not.
func FuzzSegmentDecode(f *testing.F) {
	var sample bytes.Buffer
	if err := fuzzSeedTrace(f).WriteSegmented(&sample, 0); err != nil {
		f.Fatal(err)
	}
	// Seed with the real thing: each segment payload of a written trace.
	sc, err := NewScanner(bytes.NewReader(sample.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	for {
		_, payload, _, err := ReadSegmentFrame(sc.br, nil, maxSegmentLen, segSymbols, segEvents)
		if err != nil {
			break
		}
		f.Add(payload, int64(0))
	}
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0}, int64(7))
	f.Add([]byte{1, 1, 0, 9, 0}, int64(5))                                                          // enter, Δts −5: back to zero
	f.Add([]byte{1, 2, 0, 11, 1}, int64(5))                                                         // exit, Δts −6: negative
	f.Add([]byte{2, 3, 0, 2, 0, 0x95, 0x9a, 0xef, 0x3a, 5, 1, 2, 9}, int64(1))                      // sample then drop
	f.Add([]byte{1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0, 0}, int64(0)) // varint overflow
	f.Add([]byte{2, 0, 3, 'a', 'b', 'c', 0, 0}, int64(0))                                           // symbols: "abc", ""
	f.Add([]byte{1, 0, 0xff, 0xff, 0x07}, int64(0))                                                 // symbol name longer than the payload
	f.Fuzz(func(t *testing.T, payload []byte, prevTS int64) {
		if prevTS < 0 {
			prevTS = -(prevTS + 1)
		}
		seeded := func() *SymTab {
			sym := NewSymTab()
			sym.Register("seeded.one")
			sym.Register("seeded.two")
			return sym
		}
		refSym, newSym := seeded(), seeded()
		wantOK := refParseSymbolSegment(payload, refSym)
		if gotOK := parseSymbolSegment(payload, newSym); gotOK != wantOK {
			t.Fatalf("symbol segment acceptance diverged: reference %v, cursor %v", wantOK, gotOK)
		}
		if !reflect.DeepEqual(refSym.Names(), newSym.Names()) {
			t.Fatalf("symbol tables diverged: reference %q, cursor %q", refSym.Names(), newSym.Names())
		}

		const nsyms = 2
		want, wantTS, wantOK := refParseEventSegment(payload, prevTS, nsyms)
		got, gotTS, err := DecodeEvents(payload, prevTS, nsyms, nil)
		if wantOK != (err == nil) {
			t.Fatalf("event segment acceptance diverged: reference %v, cursor %v", wantOK, err)
		}
		if !wantOK {
			return
		}
		if gotTS != wantTS {
			t.Fatalf("carried timestamp: cursor %d, reference %d", gotTS, wantTS)
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("events diverged:\n cursor    %+v\n reference %+v", got, want)
		}
	})
}
