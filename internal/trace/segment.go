package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Segmented trace format ("TPST" version 2) — the crash-safe variant.
//
// Version 1 serialises the whole trace in one shot, so a run killed
// mid-write (the paper's destructor signal arriving early, a node dying
// hours into a NAS run) leaves a file ReadTrace rejects outright. Version
// 2 appends self-delimiting, checksummed segments instead:
//
//	header  magic uint32 'TPST', version uint16 = 2,
//	        nodeID uvarint, rank uvarint
//	segment kind byte ('S' symbols | 'E' events)
//	        payloadLen uint32 LE
//	        crc32(payload) uint32 LE (IEEE)
//	        payload
//
// Symbol segments carry only the symbols registered since the previous
// flush (count, then per symbol: addr uvarint, name len+bytes), so ids
// stay dense and consistent across segments. Event segments carry (count,
// then per event: kind byte, lane uvarint, Δts zigzag varint, payload as
// in v1). Timestamp deltas are signed and carried across segments; lanes
// drained at different times may interleave slightly out of order, and the
// reader re-sorts exactly like Tracer.Snapshot.
//
// Recovery: a torn tail — truncated header, torn segment, checksum
// mismatch — costs only the incomplete segment. ReadTrace salvages every
// intact prefix segment and marks the result Truncated instead of
// returning ErrBadFormat.

const (
	formatVersionSeg = 2
	segSymbols       = 'S'
	segEvents        = 'E'
	// maxSegmentLen bounds a single segment payload; larger declared
	// lengths are treated as corruption.
	maxSegmentLen = 1 << 28
)

// Writer appends a trace incrementally in the segmented format. Each
// Flush produces durable, self-contained output: if the process dies
// afterwards, everything flushed so far is recoverable. Writer itself is
// not concurrency-safe; tempd's flush loop is its single caller.
type Writer struct {
	w           io.Writer
	symsWritten int
	prevTS      int64
	events      uint64
	segments    int
	bytes       uint64
	err         error
}

// NewWriter writes the stream header immediately and returns the
// incremental writer.
func NewWriter(w io.Writer, nodeID, rank uint32) (*Writer, error) {
	var hdr bytes.Buffer
	binary.Write(&hdr, binary.LittleEndian, uint32(formatMagic))
	binary.Write(&hdr, binary.LittleEndian, uint16(formatVersionSeg))
	writeUvarint(&hdr, uint64(nodeID))
	writeUvarint(&hdr, uint64(rank))
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return nil, fmt.Errorf("trace: segmented header: %w", err)
	}
	return &Writer{w: w, bytes: uint64(hdr.Len())}, nil
}

// Flush appends the new tail of the trace: any symbols registered since
// the last flush (taken from sym), then the given events as one segment.
// Events must be valid — a batch with one that is not is rejected whole
// and leaves the writer as it was; empty flushes are no-ops. After a
// write error the writer is poisoned and every call returns that error —
// the caller's trace file has a torn tail exactly where the fault hit.
func (sw *Writer) Flush(events []Event, sym *SymTab) error {
	if sw.err != nil {
		return sw.err
	}
	if sym != nil && sym.Len() > sw.symsWritten {
		payload, n, err := AppendSymbols(nil, sym, sw.symsWritten)
		if err != nil {
			return err
		}
		if err := sw.segment(segSymbols, payload); err != nil {
			return err
		}
		sw.symsWritten = n
	}
	if len(events) == 0 {
		return nil
	}
	payload, ts, err := AppendEvents(nil, events, sw.prevTS)
	if err != nil {
		return err
	}
	if err := sw.segment(segEvents, payload); err != nil {
		return err
	}
	// Only a segment that was written moves the base the next one's
	// deltas run from.
	sw.prevTS = ts
	sw.events += uint64(len(events))
	return nil
}

// segment frames and emits one payload, poisoning the writer on failure.
func (sw *Writer) segment(kind byte, payload []byte) error {
	if err := WriteSegmentFrame(sw.w, kind, payload); err != nil {
		sw.err = err
		return sw.err
	}
	sw.segments++
	sw.bytes += SegmentFrameHdrLen + uint64(len(payload))
	return nil
}

// Events reports how many events have been flushed.
func (sw *Writer) Events() uint64 { return sw.events }

// Segments reports how many segments (symbol and event) have been written.
func (sw *Writer) Segments() int { return sw.segments }

// Bytes reports how many bytes the writer has emitted, header included.
func (sw *Writer) Bytes() uint64 { return sw.bytes }

// Err returns the poisoning error, if any.
func (sw *Writer) Err() error { return sw.err }

// WriteSegmented serialises the whole trace in the crash-safe segmented
// format in batches of batch events per segment (0 = one segment). It is
// the v2 counterpart of Write.
func (tr *Trace) WriteSegmented(w io.Writer, batch int) error {
	sw, err := NewWriter(w, tr.NodeID, tr.Rank)
	if err != nil {
		return err
	}
	sym := tr.Sym
	if sym == nil {
		sym = NewSymTab()
	}
	if batch <= 0 || batch > len(tr.Events) {
		batch = len(tr.Events)
	}
	if len(tr.Events) == 0 {
		return sw.Flush(nil, sym)
	}
	for lo := 0; lo < len(tr.Events); lo += batch {
		hi := lo + batch
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		if err := sw.Flush(tr.Events[lo:hi], sym); err != nil {
			return err
		}
	}
	return nil
}

// Reading the segmented format lives in scanner.go: Scanner consumes one
// checksummed segment at a time with torn-tail salvage, and ReadTrace
// (codec.go) accumulates its batches.
