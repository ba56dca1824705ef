package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Append-style encoders for the two sections a v2 segment stream and a
// collector chunk share byte for byte — the exact inverses of
// DecodeSymbols and DecodeEvents. On error nothing that was appended is
// returned.

// AppendSymbols appends the symbol batch for sym's ids [from, sym.Len()):
// a count, then per symbol its address, name length and name. It returns
// the table length the batch brings a reader to, the next call's from.
func AppendSymbols(dst []byte, sym *SymTab, from int) ([]byte, int, error) {
	names := sym.Names()
	if from > len(names) {
		return nil, 0, fmt.Errorf("trace: symbol cursor %d beyond table of %d", from, len(names))
	}
	dst = binary.AppendUvarint(dst, uint64(len(names)-from))
	for id := from; id < len(names); id++ {
		addr, err := sym.Addr(uint32(id))
		if err != nil {
			return nil, 0, err
		}
		dst = binary.AppendUvarint(dst, addr)
		dst = binary.AppendUvarint(dst, uint64(len(names[id])))
		dst = append(dst, names[id]...)
	}
	return dst, len(names), nil
}

// AppendEvents appends events as one event batch: a count, then per event
// its kind byte, lane, zigzag timestamp delta and the kind's own fields.
// Deltas run on from ts, and the last event's timestamp is returned so a
// segment stream can carry it into the next batch — once this one is
// written, not before. Events must be Valid.
func AppendEvents(dst []byte, events []Event, ts int64) ([]byte, int64, error) {
	// A typical event takes six bytes or fewer.
	dst = slices.Grow(dst, 6*len(events))
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	for i := range events {
		e := &events[i]
		if err := e.Valid(); err != nil {
			return nil, 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		dst = append(dst, byte(e.Kind))
		dst = binary.AppendUvarint(dst, uint64(e.Lane))
		dst = binary.AppendVarint(dst, int64(e.TS)-ts)
		ts = int64(e.TS)
		switch e.Kind {
		case KindEnter, KindExit, KindMarker:
			dst = binary.AppendUvarint(dst, uint64(e.FuncID))
		case KindSample:
			dst = binary.AppendUvarint(dst, uint64(e.SensorID))
			// Milli-degrees: what a sample round-trips to in every format.
			dst = binary.AppendVarint(dst, int64(math.Round(e.ValueC*1000)))
		case KindDrop:
			dst = binary.AppendUvarint(dst, e.Aux)
		}
	}
	return dst, ts, nil
}
