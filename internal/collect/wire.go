// Package collect is Tempest's fleet collector: the service side of
// cluster-scale hot-spot profiling.
//
// The paper's workflow is per-node and offline — every rank writes a
// trace file and a parser merges the files after the run. collect keeps
// the same data model but moves it online: each node runs a Shipper that
// frames drained trace batches over a self-healing TCP link, and a
// long-running Collector ingests streams from many nodes at once,
// folding each into that node's streaming parser.Builder and serving
// fleet-wide profiles, hot-spot rankings and self-observability over
// HTTP. A profile assembled from shipped batches is identical to one
// parsed offline from the equivalent trace file: the Builder is the
// single implementation of both.
//
// Wire protocol (ship mode), version 2, little-endian. The forward
// path carries frames with a kind byte; the downstream path — formerly
// a raw resume word plus raw acks — is framed the same way, so acks can
// carry piggybacked control directives (the adaptive-sampling feedback
// loop):
//
//	hello   magic uint32 'TPCH', version uint16 = 2,
//	        nodeID uvarint, rank uvarint        (shipper → collector)
//	frame   seq uint64, kind uint8, payloadLen uint32,
//	        crc32(payload) uint32, payload      (shipper → collector:
//	        kind 0 = event chunk, kind 1 = coarse bucket report)
//	down    kind uint8, …                       (collector → shipper)
//	 ·ack   kind 0: next uint64 — once after the hello (the resume
//	        cursor) and after every frame (next expected sequence)
//	 ·ctl   kind 1: rev uint64, payloadLen uint32, crc32(payload)
//	        uint32, payload — a full desired instrumentation set
//	        (per-function enable/disable keyed by symbol name), with
//	        the same checksum/revision/dedup discipline as the forward
//	        path: directives are idempotent full sets, revisions only
//	        move forward, and a corrupt control frame kills the
//	        connection (the collector re-issues its latest policy on
//	        the reconnect handshake, so loss only delays convergence).
//
// Each kind-0 frame payload is one self-contained chunk: the symbols
// registered since the previous chunk, then a batch of events whose
// timestamp deltas restart at zero (the first delta is the absolute
// timestamp). Chunks therefore decode against nothing but the node's
// cumulative symbol table — a chunk resent after a reconnect is
// byte-identical and the collector's per-node sequence cursor drops
// duplicates, so the decoded stream is exactly-once and in-order no
// matter how many times the link dies.
//
// Kind-1 frames carry gprof-style coarse buckets (per-function call
// count + cumulative time) keyed by symbol name, self-contained by
// construction. They share the forward sequence space — the cursor
// dedup and the durable store's gap-free replay cover both kinds — but
// are advisory: a coarse report that fails to decode is counted and
// dropped without poisoning the node's event stream.
//
// A connection that opens with the TPST trace magic instead of the hello
// magic is a bulk upload: the collector scans it as a complete trace
// file (v1 or v2), rescanning per connection with a pooled, Reset
// trace.Scanner.
package collect

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"tempest/instrument"
	"tempest/internal/trace"
)

const (
	// helloMagic opens a ship-mode connection ("TPCH" little-endian).
	helloMagic   = 0x48435054
	wireVersion  = 2
	frameHdrLen  = 17 // seq 8 + kind 1 + len 4 + crc 4
	maxChunkLen  = 1 << 26
	maxHelloName = 1 << 16

	// Forward frame kinds.
	frameData   byte = 0 // self-contained event chunk
	frameCoarse byte = 1 // coarse instrumentation bucket report

	// Downstream frame kinds.
	downAck    byte = 0  // next-expected-sequence acknowledgement
	downCtl    byte = 1  // control directive (full instrumentation set)
	downHdrLen      = 17 // kind 1 + rev 8 + len 4 + crc 4 (ctl frames)
	maxCtlLen       = 1 << 20
)

// errWire reports a malformed ship-mode stream; the connection carrying
// it is dropped and the shipper redials.
var errWire = fmt.Errorf("collect: malformed wire data")

// hello identifies one shipping node.
type hello struct {
	NodeID uint32
	Rank   uint32
}

// writeHello frames the ship-mode greeting.
func writeHello(w io.Writer, h hello) error {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(helloMagic))
	binary.Write(&buf, binary.LittleEndian, uint16(wireVersion))
	var scratch [binary.MaxVarintLen64]byte
	buf.Write(scratch[:binary.PutUvarint(scratch[:], uint64(h.NodeID))])
	buf.Write(scratch[:binary.PutUvarint(scratch[:], uint64(h.Rank))])
	_, err := w.Write(buf.Bytes())
	return err
}

// readHelloTail parses the hello after its 4-byte magic has already been
// consumed (the collector peeks the magic to dispatch ship vs bulk mode).
func readHelloTail(br io.ByteReader) (hello, error) {
	var h hello
	var ver uint16
	lo, err := readByte(br)
	if err != nil {
		return h, err
	}
	hi, err := readByte(br)
	if err != nil {
		return h, err
	}
	ver = uint16(lo) | uint16(hi)<<8
	if ver != wireVersion {
		return h, fmt.Errorf("%w: hello version %d", errWire, ver)
	}
	node, err := binary.ReadUvarint(br)
	if err != nil {
		return h, fmt.Errorf("%w: hello node id: %v", errWire, err)
	}
	rank, err := binary.ReadUvarint(br)
	if err != nil {
		return h, fmt.Errorf("%w: hello rank: %v", errWire, err)
	}
	h.NodeID = uint32(node)
	h.Rank = uint32(rank)
	return h, nil
}

func readByte(br io.ByteReader) (byte, error) {
	b, err := br.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("%w: short hello: %v", errWire, err)
	}
	return b, nil
}

// writeFrame emits one forward frame as a single buffer, so a mid-frame
// connection death never leaves the peer a torn prefix it could misparse
// (it re-syncs from the sequence cursor after reconnect either way).
func writeFrame(w io.Writer, seq uint64, kind byte, payload []byte) error {
	frame := make([]byte, frameHdrLen+len(payload))
	binary.LittleEndian.PutUint64(frame[0:8], seq)
	frame[8] = kind
	binary.LittleEndian.PutUint32(frame[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[13:17], crc32.ChecksumIEEE(payload))
	copy(frame[frameHdrLen:], payload)
	_, err := w.Write(frame)
	return err
}

// readFrame reads one forward frame into buf (grown as needed),
// returning the sequence number, kind and payload. The payload aliases
// buf and is valid until the next call.
func readFrame(r io.Reader, buf []byte) (seq uint64, kind byte, payload, newBuf []byte, err error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, buf, err
	}
	seq = binary.LittleEndian.Uint64(hdr[0:8])
	kind = hdr[8]
	plen := binary.LittleEndian.Uint32(hdr[9:13])
	sum := binary.LittleEndian.Uint32(hdr[13:17])
	if kind != frameData && kind != frameCoarse {
		return 0, 0, nil, buf, fmt.Errorf("%w: frame kind %d", errWire, kind)
	}
	if plen > maxChunkLen {
		return 0, 0, nil, buf, fmt.Errorf("%w: frame length %d", errWire, plen)
	}
	if uint32(cap(buf)) < plen {
		buf = make([]byte, plen)
	}
	payload = buf[:plen]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, buf, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, 0, nil, buf, fmt.Errorf("%w: frame checksum mismatch", errWire)
	}
	return seq, kind, payload, buf, nil
}

// writeAck emits one downstream acknowledgement: the next sequence
// number the collector expects. Sent once after the hello (the resume
// cursor) and after every committed frame.
func writeAck(w io.Writer, next uint64) error {
	var buf [9]byte
	buf[0] = downAck
	binary.LittleEndian.PutUint64(buf[1:9], next)
	_, err := w.Write(buf[:])
	return err
}

// writeControl emits one downstream control frame carrying an encoded
// directive at policy revision rev. Single-buffer write for the same
// torn-prefix reason as writeFrame; rev plays the sequence role and the
// payload is checksummed exactly like forward frames.
func writeControl(w io.Writer, rev uint64, payload []byte) error {
	frame := make([]byte, downHdrLen+len(payload))
	frame[0] = downCtl
	binary.LittleEndian.PutUint64(frame[1:9], rev)
	binary.LittleEndian.PutUint32(frame[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[13:17], crc32.ChecksumIEEE(payload))
	copy(frame[downHdrLen:], payload)
	_, err := w.Write(frame)
	return err
}

// downFrame is one parsed collector→shipper frame.
type downFrame struct {
	kind byte
	next uint64 // downAck: next expected forward sequence
	rev  uint64 // downCtl: policy revision
	ctl  instrument.Directive
}

// readDown reads one downstream frame. A malformed or corrupt frame is
// an error: the shipper drops the connection and redials rather than
// guessing, and the collector re-issues its policy on reconnect.
func readDown(r io.Reader, buf []byte) (downFrame, []byte, error) {
	var kind [1]byte
	if _, err := io.ReadFull(r, kind[:]); err != nil {
		return downFrame{}, buf, err
	}
	switch kind[0] {
	case downAck:
		var word [8]byte
		if _, err := io.ReadFull(r, word[:]); err != nil {
			return downFrame{}, buf, err
		}
		return downFrame{kind: downAck, next: binary.LittleEndian.Uint64(word[:])}, buf, nil
	case downCtl:
		var hdr [downHdrLen - 1]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return downFrame{}, buf, err
		}
		rev := binary.LittleEndian.Uint64(hdr[0:8])
		plen := binary.LittleEndian.Uint32(hdr[8:12])
		sum := binary.LittleEndian.Uint32(hdr[12:16])
		if plen > maxCtlLen {
			return downFrame{}, buf, fmt.Errorf("%w: control length %d", errWire, plen)
		}
		if uint32(cap(buf)) < plen {
			buf = make([]byte, plen)
		}
		payload := buf[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return downFrame{}, buf, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return downFrame{}, buf, fmt.Errorf("%w: control checksum mismatch", errWire)
		}
		d, err := decodeControl(payload)
		if err != nil {
			return downFrame{}, buf, err
		}
		d.Rev = rev
		return downFrame{kind: downCtl, rev: rev, ctl: d}, buf, nil
	default:
		return downFrame{}, buf, fmt.Errorf("%w: downstream kind %d", errWire, kind[0])
	}
}

// encodeControl serialises a directive's desired set (the revision
// travels in the frame header): default mode, then each override as
// name + mode.
func encodeControl(d instrument.Directive) []byte {
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	uv := func(v uint64) { buf.Write(scratch[:binary.PutUvarint(scratch[:], v)]) }
	buf.WriteByte(byte(d.Default))
	uv(uint64(len(d.Funcs)))
	for _, f := range d.Funcs {
		uv(uint64(len(f.Name)))
		buf.WriteString(f.Name)
		buf.WriteByte(byte(f.Mode))
	}
	return buf.Bytes()
}

// decodeControl parses a control payload back into a directive (Rev
// left zero for the caller to fill from the frame header).
func decodeControl(payload []byte) (instrument.Directive, error) {
	var d instrument.Directive
	buf := bytes.NewBuffer(payload)
	def, err := buf.ReadByte()
	if err != nil || def > byte(instrument.ModeOff) {
		return d, fmt.Errorf("%w: control default mode", errWire)
	}
	d.Default = instrument.Mode(def)
	n, err := binary.ReadUvarint(buf)
	if err != nil || n > 1<<20 {
		return d, fmt.Errorf("%w: control function count", errWire)
	}
	for i := uint64(0); i < n; i++ {
		nameLen, err := binary.ReadUvarint(buf)
		if err != nil || nameLen > maxHelloName {
			return d, fmt.Errorf("%w: control function %d name length", errWire, i)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(buf, name); err != nil {
			return d, fmt.Errorf("%w: control function %d name", errWire, i)
		}
		mode, err := buf.ReadByte()
		if err != nil || mode > byte(instrument.ModeOff) {
			return d, fmt.Errorf("%w: control function %d mode", errWire, i)
		}
		d.Funcs = append(d.Funcs, instrument.FuncMode{Name: string(name), Mode: instrument.Mode(mode)})
	}
	if buf.Len() != 0 {
		return d, fmt.Errorf("%w: %d trailing control bytes", errWire, buf.Len())
	}
	return d, nil
}

// encodeCoarse serialises one flushed coarse bucket report. Entries are
// keyed by symbol name, so the payload is self-contained: coarse-mode
// functions emit no events and therefore can't rely on the chunk
// symbol-cursor path to have shipped their names.
func encodeCoarse(stats []instrument.CoarseStat) []byte {
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	uv := func(v uint64) { buf.Write(scratch[:binary.PutUvarint(scratch[:], v)]) }
	sv := func(v int64) { buf.Write(scratch[:binary.PutVarint(scratch[:], v)]) }
	uv(uint64(len(stats)))
	for _, cs := range stats {
		uv(uint64(len(cs.Name)))
		buf.WriteString(cs.Name)
		uv(cs.Calls)
		sv(cs.Nanos)
	}
	return buf.Bytes()
}

// decodeCoarse parses a coarse report payload.
func decodeCoarse(payload []byte) ([]instrument.CoarseStat, error) {
	buf := bytes.NewBuffer(payload)
	n, err := binary.ReadUvarint(buf)
	if err != nil || n > 1<<24 {
		return nil, fmt.Errorf("%w: coarse entry count", errWire)
	}
	out := make([]instrument.CoarseStat, 0, n)
	for i := uint64(0); i < n; i++ {
		nameLen, err := binary.ReadUvarint(buf)
		if err != nil || nameLen > maxHelloName {
			return nil, fmt.Errorf("%w: coarse entry %d name length", errWire, i)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(buf, name); err != nil {
			return nil, fmt.Errorf("%w: coarse entry %d name", errWire, i)
		}
		calls, err := binary.ReadUvarint(buf)
		if err != nil {
			return nil, fmt.Errorf("%w: coarse entry %d calls", errWire, i)
		}
		nanos, err := binary.ReadVarint(buf)
		if err != nil {
			return nil, fmt.Errorf("%w: coarse entry %d nanos", errWire, i)
		}
		out = append(out, instrument.CoarseStat{Name: string(name), Calls: calls, Nanos: nanos})
	}
	if buf.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing coarse bytes", errWire, buf.Len())
	}
	return out, nil
}

// encodeChunk serialises the symbols registered at ids [fromSym, sym.Len())
// plus one event batch into a self-contained chunk. Timestamp deltas
// restart at zero, so the chunk decodes with no cross-chunk state beyond
// the cumulative symbol table.
func encodeChunk(events []trace.Event, sym *trace.SymTab, fromSym int) (payload []byte, symCount int, err error) {
	payload, symCount, err = trace.AppendSymbols(nil, sym, fromSym)
	if err != nil {
		return nil, 0, err
	}
	payload, _, err = trace.AppendEvents(payload, events, 0)
	return payload, symCount, err
}

// decodeChunk folds one chunk into the node's cumulative symbol table and
// decodes its events into batch (reused across calls). New symbols must
// continue the table densely — a gap means lost chunks (a collector
// restart mid-stream) and poisons the node rather than mis-attributing
// samples.
func decodeChunk(payload []byte, sym *trace.SymTab, batch []trace.Event) ([]trace.Event, error) {
	rest, err := decodeChunkSymbols(payload, sym)
	if err != nil {
		return nil, err
	}
	batch, _, err = trace.DecodeEvents(rest, 0, uint64(sym.Len()), batch)
	if err != nil {
		return nil, fmt.Errorf("%w: chunk %v", errWire, err)
	}
	return batch, nil
}

// decodeChunkSymbols folds only a chunk's symbol header into sym and
// returns the event section undecoded — all a reader needs from a chunk
// that precedes the range it wants, because symbol ids are cumulative
// and event timestamps are not.
func decodeChunkSymbols(payload []byte, sym *trace.SymTab) (events []byte, err error) {
	events, err = trace.DecodeSymbols(payload, sym)
	if err != nil {
		return nil, fmt.Errorf("%w: chunk %v", errWire, err)
	}
	return events, nil
}
