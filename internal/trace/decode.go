package trace

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Slice-cursor decoders for the two sections a v2 segment stream and a
// collector chunk share byte for byte: a symbol batch and an event batch.
// A read that fails leaves the cursor negative and every later read keeps
// it so: decoders check once per record, not once per field.

// uvarint reads one unsigned varint at p[i:], returning the value and the
// index after it, or -1 for what binary.ReadUvarint rejects (torn, or
// over 64 bits) and for a cursor that is already negative.
func uvarint(p []byte, i int) (uint64, int) {
	if uint(i) < uint(len(p)) && p[i] < 0x80 {
		return uint64(p[i]), i + 1
	}
	if i < 0 {
		return 0, -1
	}
	v, w := binary.Uvarint(p[i:])
	if w <= 0 {
		return 0, -1
	}
	return v, i + w
}

// varint reads one zigzag varint at p[i:], like uvarint.
func varint(p []byte, i int) (int64, int) {
	ux, i := uvarint(p, i)
	return int64(ux>>1) ^ -int64(ux&1), i
}

// DecodeSymbols folds the symbol batch at the head of p into sym — a
// count, then per symbol its address (regenerated on Register, so
// skipped), name length and name — and returns what follows it. New
// symbols must continue the table densely: a name already registered
// means an earlier batch was lost, and the ids that follow would be
// misattributed.
func DecodeSymbols(p []byte, sym *SymTab) (rest []byte, err error) {
	n, i := uvarint(p, 0)
	if i < 0 || n > 1<<24 {
		return nil, fmt.Errorf("symbol count")
	}
	base := sym.Len()
	for k := uint64(0); k < n; k++ {
		_, i = uvarint(p, i)
		var nameLen uint64
		nameLen, i = uvarint(p, i)
		if i < 0 || nameLen > 1<<16 || nameLen > uint64(len(p)-i) {
			return nil, fmt.Errorf("symbol %d of %d malformed", k, n)
		}
		name := string(p[i : i+int(nameLen)])
		i += int(nameLen)
		if got := sym.Register(name); int(got) != base+int(k) {
			return nil, fmt.Errorf("symbol %q already registered (ids must continue the table densely)", name)
		}
	}
	return p[i:], nil
}

// DecodeEvents decodes the event batch that fills p — a count, then per
// event its kind byte, lane, zigzag timestamp delta and the kind's own
// fields — into batch (reused from its start). Deltas accumulate from ts;
// the last event's timestamp is returned so a segment stream can carry it
// into the next segment. Function ids must index a table of nsyms
// symbols. Nothing is returned from a batch that is malformed anywhere,
// trailing bytes included.
func DecodeEvents(p []byte, ts int64, nsyms uint64, batch []Event) ([]Event, int64, error) {
	n, i := uvarint(p, 0)
	if i < 0 || n > 1<<32 {
		return nil, 0, fmt.Errorf("event count")
	}
	batch = batch[:0]
	if cap(batch) == 0 {
		// An event is at least four bytes: the hint is bounded by the
		// payload, not only by the count it declares.
		batch = make([]Event, 0, eventCap(min(n, uint64(len(p)-i)/4)))
	}
	for k := uint64(0); k < n; k++ {
		if i >= len(p) {
			return nil, 0, fmt.Errorf("event %d of %d missing", k, n)
		}
		e := Event{Kind: EventKind(p[i])}
		var lane, id uint64
		var dts, milli int64
		lane, i = uvarint(p, i+1)
		dts, i = varint(p, i)
		ts += dts
		switch e.Kind {
		case KindEnter, KindExit, KindMarker:
			if id, i = uvarint(p, i); id >= nsyms {
				i = -1
			}
			e.FuncID = uint32(id)
		case KindSample:
			id, i = uvarint(p, i)
			milli, i = varint(p, i)
			e.SensorID, e.ValueC = uint32(id), float64(milli)/1000
		case KindDrop:
			e.Aux, i = uvarint(p, i)
		default:
			i = -1
		}
		if i < 0 || ts < 0 {
			return nil, 0, fmt.Errorf("event %d of %d malformed", k, n)
		}
		e.Lane, e.TS = uint32(lane), time.Duration(ts)
		batch = append(batch, e)
	}
	if i != len(p) {
		return nil, 0, fmt.Errorf("%d trailing bytes", len(p)-i)
	}
	return batch, ts, nil
}
