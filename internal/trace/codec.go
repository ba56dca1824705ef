package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary trace format ("TPST"), little-endian, varint-packed:
//
//	magic   uint32  'T','P','S','T'
//	version uint16
//	nodeID  uvarint
//	rank    uvarint
//	nsyms   uvarint
//	  per symbol: addr uvarint, name (uvarint len + bytes)
//	nevents uvarint
//	  per event:  kind byte, lane uvarint, Δts uvarint (ns since previous
//	              event), then kind-specific payload:
//	                enter/exit/marker: funcID uvarint
//	                sample: sensorID uvarint, milli-°C zigzag varint
//	                drop:   count uvarint
//
// Timestamps are delta-encoded against the previous event in stream order
// (snapshots are already time-sorted), keeping typical events ≤6 bytes.

const (
	formatMagic   = 0x54535054 // "TPST" little-endian
	formatVersion = 1
)

// ErrBadFormat reports a malformed or foreign trace stream.
var ErrBadFormat = errors.New("trace: bad trace format")

// writeChunk is how many encoded bytes Write gathers before handing them
// to w, so its buffer does not grow with the trace.
const writeChunk = 4096

// Write serialises the trace to w in the TPST format.
func (tr *Trace) Write(w io.Writer) error {
	b := make([]byte, 0, writeChunk+64) // room for one more event past the threshold
	b = binary.LittleEndian.AppendUint32(b, formatMagic)
	b = binary.LittleEndian.AppendUint16(b, formatVersion)
	b = binary.AppendUvarint(b, uint64(tr.NodeID))
	b = binary.AppendUvarint(b, uint64(tr.Rank))

	sym := tr.Sym
	if sym == nil {
		sym = NewSymTab()
	}
	// The whole table as one symbol section: the layout v2 kept.
	b, _, err := AppendSymbols(b, sym, 0)
	if err != nil {
		return err
	}

	b = binary.AppendUvarint(b, uint64(len(tr.Events)))
	var prevTS int64
	for i := range tr.Events {
		e := &tr.Events[i]
		if err := e.Valid(); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		ts := int64(e.TS)
		if ts < prevTS {
			return fmt.Errorf("trace: event %d timestamp %v regresses (events must be time-sorted)", i, e.TS)
		}
		b = append(b, byte(e.Kind))
		b = binary.AppendUvarint(b, uint64(e.Lane))
		b = binary.AppendUvarint(b, uint64(ts-prevTS))
		prevTS = ts
		switch e.Kind {
		case KindEnter, KindExit, KindMarker:
			b = binary.AppendUvarint(b, uint64(e.FuncID))
		case KindSample:
			b = binary.AppendUvarint(b, uint64(e.SensorID))
			b = binary.AppendVarint(b, int64(math.Round(e.ValueC*1000)))
		case KindDrop:
			b = binary.AppendUvarint(b, e.Aux)
		}
		if len(b) >= writeChunk {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	_, err = w.Write(b)
	return err
}

// ReadTrace parses a TPST stream back into a Trace by accumulating a
// Scanner's batches. Version 1 streams are parsed strictly; version 2
// (segmented, see segment.go) streams recover from truncated or torn
// tails by salvaging every intact prefix segment and setting
// Trace.Truncated. Callers that do not need the whole trace in memory
// should use a Scanner directly.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	tr := &Trace{NodeID: sc.NodeID(), Rank: sc.Rank(), Sym: sc.Sym()}
	if sc.Version() == formatVersion {
		// Even an empty v1 trace yields a non-nil slice, as it always has.
		tr.Events = make([]Event, 0, eventCap(sc.DeclaredEvents()))
	}
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tr.Events = append(tr.Events, batch...)
	}
	tr.Truncated = sc.Truncated()
	if sc.Version() == formatVersionSeg {
		// Lanes drained at different times may interleave slightly out of
		// order across segments; restore the total order Snapshot uses.
		sortEvents(tr.Events)
	}
	return tr, nil
}

// eventCap bounds a preallocation hint derived from an untrusted declared
// count, so a hostile header cannot force a huge allocation up front.
func eventCap(declared uint64) int {
	return int(min(declared, 1<<20))
}
