package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// scanBatchSize bounds how many v1 events one Next call decodes; v2
// batches follow segment boundaries instead.
const scanBatchSize = 8192

// Scanner is the streaming TPST reader: it decodes a trace one
// checksummed segment (v2) or one bounded batch (v1) at a time, so
// arbitrarily long traces can be parsed in O(segment) memory instead of
// the O(trace) slurp of ReadTrace — which is itself now a thin
// accumulate-everything wrapper around a Scanner.
//
// Usage:
//
//	sc, err := trace.NewScanner(r)
//	for {
//		batch, err := sc.Next()
//		if err == io.EOF { break }
//		if err != nil { ... }
//		// feed batch downstream; valid only until the next Next call
//	}
//
// Symbols are interned into Sym as they are encountered; the format
// guarantees every symbol referenced by an event batch has been
// registered by the time that batch is returned. Version 1 streams are
// decoded strictly (any malformation is an error, as ReadTrace always
// did); version 2 streams recover from torn or corrupt tails by ending
// the stream early and reporting Truncated, so crash salvage works
// batch by batch too.
//
// Ordering: version 1 batches arrive globally time-sorted. Version 2
// batches are time-sorted within a segment, and per-lane order always
// holds across segments, but events of different lanes may interleave
// slightly out of order across segment boundaries (lanes are drained at
// different moments). Consumers needing a total order must merge — the
// parser's streaming Builder only relies on per-lane order.
type Scanner struct {
	br      *bufio.Reader
	version uint16
	nodeID  uint32
	rank    uint32
	sym     *SymTab

	declared  uint64 // v1 declared event count
	decoded   uint64 // events decoded so far (global index for errors)
	prevTS    int64
	truncated bool
	done      bool
	err       error

	batch   []Event // reused backing array for returned batches
	payload []byte  // reused v2 segment payload buffer
}

// NewScanner reads and validates the stream header (plus, for version 1,
// the symbol table and event count). The header is strict in both
// versions: a torn header is ErrBadFormat, not a salvageable trace.
func NewScanner(r io.Reader) (*Scanner, error) {
	s := &Scanner{}
	if err := s.Reset(r); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rewinds the scanner onto a fresh stream, reading and validating
// its header exactly like NewScanner: all decode state (version, node
// identity, timestamps, truncation verdict) is discarded and a new
// symbol table is allocated, but the internal batch and payload buffers
// — the scanner's only large allocations — are retained. Long-running
// consumers that scan many streams back to back (the collector rescanning
// per connection, tempest-parse walking a file list) therefore pay the
// decode-buffer allocation once, not per stream.
//
// The previous stream's SymTab is never mutated again after Reset, so
// builders holding it stay valid. A header error poisons the scanner
// (Next keeps returning it) until the next successful Reset.
func (s *Scanner) Reset(r io.Reader) error {
	if s.br == nil {
		s.br = bufio.NewReader(r)
	} else {
		s.br.Reset(r)
	}
	s.version = 0
	s.nodeID = 0
	s.rank = 0
	s.sym = NewSymTab()
	s.declared = 0
	s.decoded = 0
	s.prevTS = 0
	s.truncated = false
	s.done = false
	s.err = nil
	if err := s.readHeader(); err != nil {
		s.err = err
		return err
	}
	return nil
}

// readHeader consumes and validates the stream header (and, for version
// 1, the preamble).
func (s *Scanner) readHeader() error {
	var magic uint32
	if err := binary.Read(s.br, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("%w: missing magic: %v", ErrBadFormat, err)
	}
	if magic != formatMagic {
		return fmt.Errorf("%w: magic %#x", ErrBadFormat, magic)
	}
	var version uint16
	if err := binary.Read(s.br, binary.LittleEndian, &version); err != nil {
		return fmt.Errorf("%w: missing version: %v", ErrBadFormat, err)
	}
	if version != formatVersion && version != formatVersionSeg {
		return fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
	nodeID, err := binary.ReadUvarint(s.br)
	if err != nil {
		return fmt.Errorf("%w: node id: %v", ErrBadFormat, err)
	}
	rank, err := binary.ReadUvarint(s.br)
	if err != nil {
		return fmt.Errorf("%w: rank: %v", ErrBadFormat, err)
	}
	s.version = version
	s.nodeID = uint32(nodeID)
	s.rank = uint32(rank)
	if version == formatVersion {
		return s.readV1Preamble()
	}
	return nil
}

// readV1Preamble consumes the one-shot format's symbol table and event
// count, which precede all events.
func (s *Scanner) readV1Preamble() error {
	nsyms, err := binary.ReadUvarint(s.br)
	if err != nil {
		return fmt.Errorf("%w: symbol count: %v", ErrBadFormat, err)
	}
	if nsyms > 1<<24 {
		return fmt.Errorf("%w: implausible symbol count %d", ErrBadFormat, nsyms)
	}
	for i := uint64(0); i < nsyms; i++ {
		if _, err := binary.ReadUvarint(s.br); err != nil { // addr: regenerated on Register
			return fmt.Errorf("%w: symbol %d addr: %v", ErrBadFormat, i, err)
		}
		nameLen, err := binary.ReadUvarint(s.br)
		if err != nil {
			return fmt.Errorf("%w: symbol %d name length: %v", ErrBadFormat, i, err)
		}
		if nameLen > 1<<16 {
			return fmt.Errorf("%w: symbol %d name length %d", ErrBadFormat, i, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(s.br, name); err != nil {
			return fmt.Errorf("%w: symbol %d name: %v", ErrBadFormat, i, err)
		}
		if got := s.sym.Register(string(name)); got != uint32(i) {
			return fmt.Errorf("%w: duplicate symbol %q", ErrBadFormat, name)
		}
	}
	nev, err := binary.ReadUvarint(s.br)
	if err != nil {
		return fmt.Errorf("%w: event count: %v", ErrBadFormat, err)
	}
	if nev > 1<<32 {
		return fmt.Errorf("%w: implausible event count %d", ErrBadFormat, nev)
	}
	s.declared = nev
	return nil
}

// NodeID returns the trace's node identity from the header.
func (s *Scanner) NodeID() uint32 { return s.nodeID }

// Rank returns the trace's MPI rank from the header.
func (s *Scanner) Rank() uint32 { return s.rank }

// Version returns the stream's format version (1 or 2).
func (s *Scanner) Version() int { return int(s.version) }

// Sym returns the symbol table, growing as symbol segments are consumed.
func (s *Scanner) Sym() *SymTab { return s.sym }

// DeclaredEvents returns the event count a version-1 header declares
// (0 for segmented streams, which are open-ended) — a preallocation hint
// for accumulating consumers.
func (s *Scanner) DeclaredEvents() uint64 {
	if s.version == formatVersion {
		return s.declared
	}
	return 0
}

// Events reports how many events have been decoded so far.
func (s *Scanner) Events() uint64 { return s.decoded }

// Truncated reports whether a version-2 stream ended in a torn or
// corrupt tail and only the intact prefix was decoded. It is final once
// Next has returned io.EOF.
func (s *Scanner) Truncated() bool { return s.truncated }

// Next returns the next batch of events, or io.EOF when the stream is
// exhausted. The returned slice is reused by the following Next call;
// consumers must process or copy it first. Version-1 malformations
// surface as errors (wrapped ErrBadFormat); version-2 torn tails end the
// stream with io.EOF and Truncated() set, mirroring ReadTrace salvage.
func (s *Scanner) Next() ([]Event, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.done {
		return nil, io.EOF
	}
	var (
		batch []Event
		err   error
	)
	if s.version == formatVersion {
		batch, err = s.nextV1()
	} else {
		batch, err = s.nextV2()
	}
	if err != nil {
		s.err = err
		if err == io.EOF {
			s.done = true
		}
		return nil, err
	}
	s.decoded += uint64(len(batch))
	return batch, nil
}

// nextV1 decodes up to scanBatchSize events of the strict one-shot
// format.
func (s *Scanner) nextV1() ([]Event, error) {
	if s.decoded >= s.declared {
		return nil, io.EOF
	}
	n := s.declared - s.decoded
	if n > scanBatchSize {
		n = scanBatchSize
	}
	batch := s.batch[:0]
	if cap(batch) == 0 {
		batch = make([]Event, 0, eventCap(n))
	}
	nsyms := uint64(s.sym.Len())
	for i := uint64(0); i < n; i++ {
		gi := s.decoded + i // global event index, for error messages
		kindB, err := s.br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: event %d kind: %v", ErrBadFormat, gi, err)
		}
		e := Event{Kind: EventKind(kindB)}
		lane, err := binary.ReadUvarint(s.br)
		if err != nil {
			return nil, fmt.Errorf("%w: event %d lane: %v", ErrBadFormat, gi, err)
		}
		e.Lane = uint32(lane)
		dts, err := binary.ReadUvarint(s.br)
		if err != nil {
			return nil, fmt.Errorf("%w: event %d Δts: %v", ErrBadFormat, gi, err)
		}
		s.prevTS += int64(dts)
		e.TS = time.Duration(s.prevTS)
		switch e.Kind {
		case KindEnter, KindExit, KindMarker:
			fid, err := binary.ReadUvarint(s.br)
			if err != nil {
				return nil, fmt.Errorf("%w: event %d func id: %v", ErrBadFormat, gi, err)
			}
			if fid >= nsyms {
				return nil, fmt.Errorf("%w: event %d func id %d ≥ %d symbols", ErrBadFormat, gi, fid, nsyms)
			}
			e.FuncID = uint32(fid)
		case KindSample:
			sid, err := binary.ReadUvarint(s.br)
			if err != nil {
				return nil, fmt.Errorf("%w: event %d sensor id: %v", ErrBadFormat, gi, err)
			}
			e.SensorID = uint32(sid)
			milli, err := binary.ReadVarint(s.br)
			if err != nil {
				return nil, fmt.Errorf("%w: event %d sample value: %v", ErrBadFormat, gi, err)
			}
			e.ValueC = float64(milli) / 1000
		case KindDrop:
			aux, err := binary.ReadUvarint(s.br)
			if err != nil {
				return nil, fmt.Errorf("%w: event %d drop count: %v", ErrBadFormat, gi, err)
			}
			e.Aux = aux
		default:
			return nil, fmt.Errorf("%w: event %d unknown kind %d", ErrBadFormat, gi, kindB)
		}
		batch = append(batch, e)
	}
	s.batch = batch
	return batch, nil
}

// nextV2 consumes segments until one yields events. Symbol segments are
// folded into the symbol table in passing. Any framing tear, checksum
// mismatch or structural failure ends the stream (salvage semantics).
func (s *Scanner) nextV2() ([]Event, error) {
	for {
		kind, payload, buf, err := ReadSegmentFrame(s.br, s.payload, maxSegmentLen, segSymbols, segEvents)
		s.payload = buf
		if err != nil {
			// Clean EOF between segments is a complete trace; a torn or
			// corrupt segment is a truncated one. Either way the prefix
			// decoded so far is the answer.
			s.truncated = err != io.EOF
			return nil, io.EOF
		}
		switch kind {
		case segSymbols:
			if !parseSymbolSegment(payload, s.sym) {
				// A checksummed segment that still fails structural
				// parsing means in-place corruption, not truncation —
				// but the intact prefix is equally salvageable.
				s.truncated = true
				return nil, io.EOF
			}
		case segEvents:
			batch, ok := s.parseEventSegment(payload)
			if !ok {
				s.truncated = true
				return nil, io.EOF
			}
			if len(batch) == 0 {
				continue
			}
			return batch, nil
		}
	}
}

// parseSymbolSegment folds one symbol batch into sym; reports structural
// validity.
func parseSymbolSegment(payload []byte, sym *SymTab) bool {
	rest, err := DecodeSymbols(payload, sym)
	return err == nil && len(rest) == 0
}

// parseEventSegment decodes one event segment into the reused batch
// buffer; reports structural validity. The scanner's delta-timestamp
// state only advances when the whole segment decodes cleanly, so a
// corrupt segment is dropped atomically.
func (s *Scanner) parseEventSegment(payload []byte) ([]Event, bool) {
	batch, ts, err := DecodeEvents(payload, s.prevTS, uint64(s.sym.Len()), s.batch)
	if err != nil {
		return nil, false
	}
	s.batch = batch
	s.prevTS = ts
	return batch, true
}
