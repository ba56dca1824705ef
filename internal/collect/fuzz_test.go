package collect

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"tempest/internal/hotspot"
	"tempest/internal/trace"
)

// validFrame builds a well-formed frame around a real encoded chunk, so
// the fuzzer starts from inputs that reach the decoder's deep paths.
func validFrame(t testing.TB) []byte {
	sym := trace.NewSymTab()
	sym.Register("pkg.hot")
	sym.Register("pkg.cold")
	events := []trace.Event{
		{Kind: trace.KindEnter, Lane: 0, TS: 10 * time.Microsecond, FuncID: 0},
		{Kind: trace.KindSample, Lane: 1, TS: 15 * time.Microsecond, SensorID: 0, ValueC: 48.125},
		{Kind: trace.KindExit, Lane: 0, TS: 20 * time.Microsecond, FuncID: 0},
		{Kind: trace.KindDrop, Lane: 0, TS: 25 * time.Microsecond, Aux: 3},
	}
	payload, _, err := encodeChunk(events, sym, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, 7, frameData, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzFrame drives the ship-mode wire decoder with arbitrary bytes:
// readFrame and decodeChunk must never panic, and any single-byte
// payload corruption of an accepted frame must be rejected by the
// checksum (the §3.3 integrity property the frame CRC exists for).
func FuzzFrame(f *testing.F) {
	f.Add(validFrame(f))
	f.Add([]byte{})
	f.Add(validFrame(f)[:frameHdrLen])    // header only, torn payload
	f.Add(validFrame(f)[:frameHdrLen/2])  // torn header
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // insane length + checksum
	f.Add(append(validFrame(f), 0, 1, 2)) // trailing garbage after frame

	f.Fuzz(func(t *testing.T, data []byte) {
		seq, kind, payload, _, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return // malformed input rejected cleanly: that is the contract
		}
		_, _ = seq, kind
		// The checksum accepted this frame: decoding may fail (the payload
		// is still arbitrary) but must never panic, and must leave no
		// partial symbols usable for a second, inconsistent decode.
		sym := trace.NewSymTab()
		if batch, derr := decodeChunk(payload, sym, nil); derr == nil {
			// A chunk that decodes must decode identically a second time
			// against a fresh table (chunks are self-contained).
			again, aerr := decodeChunk(payload, trace.NewSymTab(), nil)
			if aerr != nil {
				t.Fatalf("second decode of accepted chunk failed: %v", aerr)
			}
			if len(again) != len(batch) {
				t.Fatalf("decode not deterministic: %d vs %d events", len(batch), len(again))
			}
		}

		// Corruption property: flip one payload byte and the frame must
		// not survive the CRC.
		if len(payload) > 0 {
			mut := append([]byte(nil), data...)
			mut[frameHdrLen] ^= 0xFF
			if _, _, _, _, err := readFrame(bytes.NewReader(mut), nil); err == nil {
				t.Fatal("frame with corrupted payload passed the checksum")
			}
		}
	})
}

// refDecodeChunk is the chunk decoder as it stood before the slice-cursor
// one replaced it: every varint through binary.ReadUvarint on an
// io.ByteReader. Kept as the reference FuzzChunkDecode compares against.
func refDecodeChunk(payload []byte, sym *trace.SymTab, batch []trace.Event) ([]trace.Event, error) {
	buf := bytes.NewBuffer(payload)
	nsyms, err := binary.ReadUvarint(buf)
	if err != nil || nsyms > 1<<24 {
		return nil, fmt.Errorf("%w: chunk symbol count", errWire)
	}
	base := sym.Len()
	for i := uint64(0); i < nsyms; i++ {
		if _, err := binary.ReadUvarint(buf); err != nil { // addr: regenerated on Register
			return nil, fmt.Errorf("%w: chunk symbol %d addr", errWire, i)
		}
		nameLen, err := binary.ReadUvarint(buf)
		if err != nil || nameLen > maxHelloName {
			return nil, fmt.Errorf("%w: chunk symbol %d name length", errWire, i)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(buf, name); err != nil {
			return nil, fmt.Errorf("%w: chunk symbol %d name", errWire, i)
		}
		if got := sym.Register(string(name)); int(got) != base+int(i) {
			return nil, fmt.Errorf("%w: chunk symbol %q re-registered (lost chunk?)", errWire, name)
		}
	}

	n, err := binary.ReadUvarint(buf)
	if err != nil || n > 1<<32 {
		return nil, fmt.Errorf("%w: chunk event count", errWire)
	}
	nsymsNow := uint64(sym.Len())
	batch = batch[:0]
	var ts int64
	for i := uint64(0); i < n; i++ {
		kindB, err := buf.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: chunk event %d kind", errWire, i)
		}
		e := trace.Event{Kind: trace.EventKind(kindB)}
		lane, err := binary.ReadUvarint(buf)
		if err != nil {
			return nil, fmt.Errorf("%w: chunk event %d lane", errWire, i)
		}
		e.Lane = uint32(lane)
		dts, err := binary.ReadVarint(buf)
		if err != nil {
			return nil, fmt.Errorf("%w: chunk event %d Δts", errWire, i)
		}
		ts += dts
		if ts < 0 {
			return nil, fmt.Errorf("%w: chunk event %d negative timestamp", errWire, i)
		}
		e.TS = time.Duration(ts)
		switch e.Kind {
		case trace.KindEnter, trace.KindExit, trace.KindMarker:
			fid, err := binary.ReadUvarint(buf)
			if err != nil || fid >= nsymsNow {
				return nil, fmt.Errorf("%w: chunk event %d func id", errWire, i)
			}
			e.FuncID = uint32(fid)
		case trace.KindSample:
			sid, err := binary.ReadUvarint(buf)
			if err != nil {
				return nil, fmt.Errorf("%w: chunk event %d sensor id", errWire, i)
			}
			e.SensorID = uint32(sid)
			milli, err := binary.ReadVarint(buf)
			if err != nil {
				return nil, fmt.Errorf("%w: chunk event %d sample value", errWire, i)
			}
			e.ValueC = float64(milli) / 1000
		case trace.KindDrop:
			aux, err := binary.ReadUvarint(buf)
			if err != nil {
				return nil, fmt.Errorf("%w: chunk event %d drop count", errWire, i)
			}
			e.Aux = aux
		default:
			return nil, fmt.Errorf("%w: chunk event %d unknown kind %d", errWire, i, kindB)
		}
		batch = append(batch, e)
	}
	if buf.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing chunk bytes", errWire, buf.Len())
	}
	return batch, nil
}

// FuzzChunkDecode holds the slice-cursor chunk decoder to the reader-based
// one it replaced: on arbitrary bytes both accept or both reject, accepted
// chunks decode to the same events, and — accepted or not — the symbol
// table ends up with the same names in the same order. The symbols-only
// read of the header must leave the table exactly as a full decode does
// whenever the full decode gets past the header.
func FuzzChunkDecode(f *testing.F) {
	frame := validFrame(f)
	f.Add(frame[frameHdrLen:])
	f.Add([]byte{})
	f.Add([]byte{0, 0})                                        // no symbols, no events
	f.Add([]byte{0, 1, 1, 0, 0, 0})                            // enter of fid 0 in an empty table
	f.Add([]byte{1, 0, 1, 'a', 1, 2, 5, 1, 0})                 // one symbol, exit with negative Δts
	f.Add([]byte{0, 1, 3, 0xff, 0xff, 0xff, 0xff, 0x0f})       // sample, wide lane varint, torn
	f.Add([]byte{0, 2, 5, 0, 2, 0x80})                         // drop with a torn count
	f.Add([]byte{2, 0, 1, 'a', 0, 1, 'a', 0})                  // symbol registered twice
	f.Add(append(append([]byte{}, frame[frameHdrLen:]...), 9)) // trailing byte
	f.Fuzz(func(t *testing.T, payload []byte) {
		seeded := func() *trace.SymTab {
			sym := trace.NewSymTab()
			sym.Register("seeded.one")
			sym.Register("seeded.two")
			return sym
		}
		refSym, newSym, hdrSym := seeded(), seeded(), seeded()
		want, refErr := refDecodeChunk(payload, refSym, nil)
		got, newErr := decodeChunk(payload, newSym, nil)
		if (refErr == nil) != (newErr == nil) {
			t.Fatalf("acceptance diverged: reference %v, cursor %v", refErr, newErr)
		}
		if !reflect.DeepEqual(refSym.Names(), newSym.Names()) {
			t.Fatalf("symbol tables diverged: reference %q, cursor %q", refSym.Names(), newSym.Names())
		}
		if newErr == nil && !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("events diverged:\n cursor    %+v\n reference %+v", got, want)
		}
		if _, err := decodeChunkSymbols(payload, hdrSym); err == nil {
			if !reflect.DeepEqual(hdrSym.Names(), newSym.Names()) {
				t.Fatalf("symbols-only read left %q, full decode %q", hdrSym.Names(), newSym.Names())
			}
		} else if newErr == nil {
			t.Fatalf("symbols-only read rejected (%v) a chunk the full decode accepts", err)
		}
	})
}

// sampleArchive is a two-node, two-window archive with every field set.
func sampleArchive() *fleetArchive {
	heat := func(node uint32, name string, score float64) []hotspot.FunctionHeat {
		return []hotspot.FunctionHeat{{Node: node, Name: name, AvgTemp: 51.5, MaxTemp: 60.25, TotalTimeS: 1.5, Score: score}}
	}
	return &fleetArchive{
		nodes: []*archiveNode{
			{node: 1, rank: 1, nextSeq: 9, segments: 12, events: 40_000, syms: []string{"main", "solve"}},
			{node: 7, rank: 3, nextSeq: 1 << 40, segments: 2, events: 17, truncated: true, syms: []string{"io"}},
		},
		windows: []archiveWindow{
			{fromWall: 1_700_000_000_000_000_000, toWall: 1_700_000_060_000_000_000, nodes: []archiveWindowNode{
				{node: 1, events: 39_000, heat: [][]hotspot.FunctionHeat{heat(1, "solve", 12.5), nil, heat(1, "main", 0.25)}},
				{node: 7, events: 17, heat: [][]hotspot.FunctionHeat{heat(7, "io", 3)}},
			}},
			{fromWall: 1_700_000_060_000_000_000, toWall: 1_700_000_120_000_000_000, nodes: []archiveWindowNode{
				{node: 1, events: 1_000},
			}},
		},
	}
}

// FuzzArchiveDecode drives the checkpoint-archive decoder with arbitrary
// bytes: it must never panic, a blob the encoder wrote re-encodes to
// itself, and any other blob it accepts re-encodes to one that does
// (accepted input may spell a varint long-hand or set flag bits the
// decoder drops, so its own bytes need not come back).
func FuzzArchiveDecode(f *testing.F) {
	canonical := encodeArchive(sampleArchive())
	f.Add(canonical)
	f.Add([]byte{})
	f.Add(encodeArchive(&fleetArchive{}))
	f.Add(canonical[:len(canonical)/2])
	f.Add(append(bytes.Clone(canonical), 0))
	f.Add([]byte{1, 0}) // version 1: no longer decodes
	f.Add(bytes.Repeat([]byte{0xFF}, 32))

	f.Fuzz(func(t *testing.T, blob []byte) {
		a, err := decodeArchive(blob)
		if err != nil {
			return
		}
		again := encodeArchive(a)
		if bytes.Equal(blob, canonical) && !bytes.Equal(again, blob) {
			t.Fatal("the encoder's own blob does not re-encode to itself")
		}
		b, err := decodeArchive(again)
		if err != nil {
			t.Fatalf("re-encoded archive does not decode: %v", err)
		}
		if !bytes.Equal(encodeArchive(b), again) {
			t.Fatal("re-encoding an accepted archive is not a fixed point")
		}
	})
}
