package trace

import (
	"bufio"
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

// Write serialises the trace to w in the TPST format.
func (tr *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	putUvarint := func(v uint64) error { return writeUvarint(bw, v) }
	putVarint := func(v int64) error { return writeVarint(bw, v) }

	if err := binary.Write(bw, binary.LittleEndian, uint32(formatMagic)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(formatVersion)); err != nil {
		return err
	}
	if err := putUvarint(uint64(tr.NodeID)); err != nil {
		return err
	}
	if err := putUvarint(uint64(tr.Rank)); err != nil {
		return err
	}

	sym := tr.Sym
	if sym == nil {
		sym = NewSymTab()
	}
	// The whole table as one symbol section: the layout v2 kept.
	syms, _, err := AppendSymbols(nil, sym, 0)
	if err != nil {
		return err
	}
	if _, err := bw.Write(syms); err != nil {
		return err
	}

	if err := putUvarint(uint64(len(tr.Events))); err != nil {
		return err
	}
	var prevTS int64
	for i, e := range tr.Events {
		if err := e.Valid(); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		ts := int64(e.TS)
		if ts < prevTS {
			return fmt.Errorf("trace: event %d timestamp %v regresses (events must be time-sorted)", i, e.TS)
		}
		if err := bw.WriteByte(byte(e.Kind)); err != nil {
			return err
		}
		if err := putUvarint(uint64(e.Lane)); err != nil {
			return err
		}
		if err := putUvarint(uint64(ts - prevTS)); err != nil {
			return err
		}
		prevTS = ts
		switch e.Kind {
		case KindEnter, KindExit, KindMarker:
			if err := putUvarint(uint64(e.FuncID)); err != nil {
				return err
			}
		case KindSample:
			if err := putUvarint(uint64(e.SensorID)); err != nil {
				return err
			}
			milli := int64(math.Round(e.ValueC * 1000))
			if err := putVarint(milli); err != nil {
				return err
			}
		case KindDrop:
			if err := putUvarint(e.Aux); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
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
