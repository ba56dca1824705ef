package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tempest/internal/trace"
)

const (
	segMagic   = 0x53535054 // "TPSS" little-endian
	segVersion = 1

	recBatch      = 'B' // one committed ingest batch
	recCheckpoint = 'C' // compaction archive

	// maxRecordLen bounds one framed record: the collector's chunk limit
	// plus framing slack. Larger declarations are corruption.
	maxRecordLen = 1<<26 + 4096
)

// ChainLen is the size of one hash-chain link (SHA-256).
const ChainLen = 32

// Chain is the running tamper-evidence hash: each committed record
// carries SHA-256(previous chain ‖ record body).
type Chain [ChainLen]byte

// String renders the chain link as hex.
func (c Chain) String() string { return fmt.Sprintf("%x", c[:]) }

// chainNext advances the hash chain over one record body.
func chainNext(prev Chain, body []byte) Chain {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(body)
	var out Chain
	h.Sum(out[:0])
	return out
}

// errChainBreak reports a record whose stored chain link does not
// continue its predecessor — in-place tampering or reordering that CRCs
// alone cannot see.
var errChainBreak = errors.New("store: hash chain break")

// errStoreClosed reports use after Close.
var errStoreClosed = errors.New("store: closed")

// writeRecord frames one record — body followed by its chain link — and
// emits it as a single trace segment frame. The chain link is computed
// and copied into the record before the frame is written, so a torn
// write can never leave a committed-looking record without its hash.
func writeRecord(w io.Writer, kind byte, body []byte, prev Chain) (Chain, error) {
	nextChain := chainNext(prev, body)
	rec := make([]byte, len(body)+ChainLen)
	copy(rec, body)
	copy(rec[len(body):], nextChain[:])
	if err := trace.WriteSegmentFrame(w, kind, rec); err != nil {
		return Chain{}, err
	}
	return nextChain, nil
}

// record is one intact store record.
type record struct {
	body  []byte // without the trailing chain link; aliases the scan buffer
	batch Batch  // body parsed, in a segment file
}

// appendBatchBody serialises a batch body into dst.
func appendBatchBody(dst []byte, b Batch) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.Node))
	dst = binary.AppendUvarint(dst, uint64(b.Rank))
	dst = binary.AppendUvarint(dst, b.Seq)
	dst = append(dst, b.Flags)
	dst = binary.AppendUvarint(dst, uint64(b.WallNano))
	dst = binary.AppendUvarint(dst, uint64(len(b.Payload)))
	return append(dst, b.Payload...)
}

// parseBatchBody decodes a batch body; the payload aliases body.
func parseBatchBody(body []byte) (Batch, error) {
	var b Batch
	rd := newSliceReader(body)
	node, err := rd.uvarint()
	if err != nil {
		return b, fmt.Errorf("store: batch node: %w", err)
	}
	rank, err := rd.uvarint()
	if err != nil {
		return b, fmt.Errorf("store: batch rank: %w", err)
	}
	seq, err := rd.uvarint()
	if err != nil {
		return b, fmt.Errorf("store: batch seq: %w", err)
	}
	flags, err := rd.byte()
	if err != nil {
		return b, fmt.Errorf("store: batch flags: %w", err)
	}
	wall, err := rd.uvarint()
	if err != nil {
		return b, fmt.Errorf("store: batch wall clock: %w", err)
	}
	plen, err := rd.uvarint()
	if err != nil {
		return b, fmt.Errorf("store: batch payload length: %w", err)
	}
	payload, err := rd.bytes(plen)
	if err != nil {
		return b, fmt.Errorf("store: batch payload: %w", err)
	}
	if rd.len() != 0 {
		return b, fmt.Errorf("store: %d trailing batch bytes", rd.len())
	}
	b.Node = uint32(node)
	b.Rank = uint32(rank)
	b.Seq = seq
	b.Flags = flags
	b.WallNano = int64(wall)
	b.Payload = payload
	return b, nil
}

// appendCheckpointBody serialises a checkpoint body: the raw-prefix
// coverage index, the final chain link of the batches the archive
// replaced, and the opaque archive blob.
func appendCheckpointBody(dst []byte, covered uint64, prevFinal Chain, archive []byte) []byte {
	dst = binary.AppendUvarint(dst, covered)
	dst = append(dst, prevFinal[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(archive)))
	return append(dst, archive...)
}

// parseCheckpointBody decodes a checkpoint body; archive aliases body.
func parseCheckpointBody(body []byte) (covered uint64, prevFinal Chain, archive []byte, err error) {
	rd := newSliceReader(body)
	covered, err = rd.uvarint()
	if err != nil {
		return 0, Chain{}, nil, fmt.Errorf("store: checkpoint index: %w", err)
	}
	link, err := rd.bytes(ChainLen)
	if err != nil {
		return 0, Chain{}, nil, fmt.Errorf("store: checkpoint prev chain: %w", err)
	}
	copy(prevFinal[:], link)
	alen, err := rd.uvarint()
	if err != nil {
		return 0, Chain{}, nil, fmt.Errorf("store: checkpoint archive length: %w", err)
	}
	archive, err = rd.bytes(alen)
	if err != nil {
		return 0, Chain{}, nil, fmt.Errorf("store: checkpoint archive: %w", err)
	}
	if rd.len() != 0 {
		return 0, Chain{}, nil, fmt.Errorf("store: %d trailing checkpoint bytes", rd.len())
	}
	return covered, prevFinal, archive, nil
}

// sliceReader is a tiny bounds-checked cursor over a record body.
type sliceReader struct{ b []byte }

func newSliceReader(b []byte) *sliceReader { return &sliceReader{b: b} }

func (r *sliceReader) len() int { return len(r.b) }

func (r *sliceReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errors.New("short or malformed uvarint")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *sliceReader) byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, errors.New("short read")
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *sliceReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)) {
		return nil, fmt.Errorf("declared %d bytes, %d remain", n, len(r.b))
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v, nil
}

// segHeader is one segment (or checkpoint) file header.
type segHeader struct {
	index      uint64
	chainStart Chain
	size       int // encoded size in bytes
}

func appendSegHeader(dst []byte, index uint64, chainStart Chain) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, segMagic)
	dst = binary.LittleEndian.AppendUint16(dst, segVersion)
	dst = binary.AppendUvarint(dst, index)
	return append(dst, chainStart[:]...)
}

func readSegHeader(br *bufio.Reader) (segHeader, error) {
	var h segHeader
	var fixed [6]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return h, fmt.Errorf("store: segment header: %w", err)
	}
	if binary.LittleEndian.Uint32(fixed[0:4]) != segMagic {
		return h, fmt.Errorf("store: bad segment magic %#x", binary.LittleEndian.Uint32(fixed[0:4]))
	}
	if v := binary.LittleEndian.Uint16(fixed[4:6]); v != segVersion {
		return h, fmt.Errorf("store: unsupported segment version %d", v)
	}
	idx, err := binary.ReadUvarint(br)
	if err != nil {
		return h, fmt.Errorf("store: segment index: %w", err)
	}
	var link [ChainLen]byte
	if _, err := io.ReadFull(br, link[:]); err != nil {
		return h, fmt.Errorf("store: segment chain start: %w", err)
	}
	h.index = idx
	h.chainStart = link
	h.size = len(appendSegHeader(nil, idx, link))
	return h, nil
}

// segScan is the result of walking one segment file: its index entry, up
// to the last intact record, and how the walk ended.
type segScan struct {
	segMeta
	header  segHeader
	records int
	goodOff int64 // offset just past the last intact record
	tear    error // nil if the file ended cleanly on a frame boundary
}

// scanBuf is what one file scan reads through: a record handed to the
// scan's callback is only valid until the callback returns.
type scanBuf struct {
	br    *bufio.Reader
	frame []byte
}

// scanBufs recycles them. A ranged read scans every segment up to its
// range and a restart every segment there is; a fresh 64 KiB reader and
// frame buffer per file was three quarters of what a cold ranged read
// allocated.
var scanBufs = sync.Pool{New: func() any { return &scanBuf{br: bufio.NewReaderSize(nil, 1<<16)} }}

// scanSegmentFile walks the segment or checkpoint file sm names by index
// and path, whose records are all of one kind (recBatch or
// recCheckpoint), verifying frame CRCs and chain continuity, calling fn
// (when non-nil) with each intact record; the scan's segMeta is sm with
// the rest filled in. Scanning stops at the first tear, CRC failure,
// chain break or record of another kind — the frame CRC does not cover
// the kind byte — reported via segScan.tear; an unreadable header is a
// hard error. A non-nil error from fn aborts the scan and is returned
// verbatim.
func scanSegmentFile(sm segMeta, kind byte, fn func(record) error) (*segScan, error) {
	path := sm.path
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sb := scanBufs.Get().(*scanBuf)
	br := sb.br
	br.Reset(f)
	defer func() {
		br.Reset(nil) // a pooled reader must not pin the closed file
		scanBufs.Put(sb)
	}()
	hdr, err := readSegHeader(br)
	if err != nil {
		return nil, err
	}
	sc := &segScan{segMeta: segMeta{index: sm.index, path: path, final: hdr.chainStart}, header: hdr, goodOff: int64(hdr.size)}
	for {
		_, payload, nbuf, err := trace.ReadSegmentFrame(br, sb.frame, maxRecordLen, kind)
		sb.frame = nbuf
		if err == io.EOF {
			return sc, nil
		}
		if err != nil {
			sc.tear = err
			return sc, nil
		}
		if len(payload) < ChainLen {
			sc.tear = fmt.Errorf("%w: record shorter than its chain link", trace.ErrTornSegment)
			return sc, nil
		}
		rec := record{body: payload[:len(payload)-ChainLen]}
		var link Chain
		copy(link[:], payload[len(payload)-ChainLen:])
		if want := chainNext(sc.final, rec.body); want != link {
			sc.tear = fmt.Errorf("%w: record %d of %s", errChainBreak, sc.records, filepath.Base(path))
			return sc, nil
		}
		if kind == recBatch {
			if rec.batch, err = parseBatchBody(rec.body); err != nil {
				// The frame and chain verified but the body is structurally
				// invalid: treat the record as torn so salvage stops before
				// it instead of replaying garbage.
				sc.tear = err
				return sc, nil
			}
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return nil, err
			}
		}
		sc.final = link
		sc.records++
		sc.goodOff += int64(trace.SegmentFrameHdrLen + len(payload))
		if kind == recBatch {
			wall := rec.batch.WallNano
			if sc.batches == 0 || wall < sc.firstWall {
				sc.firstWall = wall
			}
			sc.batches++
			sc.lastWall = wall
		}
	}
}

// walk hands every intact batch in segs' files to fn, in order. A tear
// ends the walk of its file, not of segs: walk goes on to the next file
// and returns every tear it met, each naming its file. An error from fn,
// or a file that will not open, ends the walk.
func walk(segs []segMeta, fn func(Batch) error) (tears []error, err error) {
	for _, sm := range segs {
		name := filepath.Base(sm.path)
		sc, err := scanSegmentFile(sm, recBatch, func(rec record) error { return fn(rec.batch) })
		if err != nil {
			return tears, fmt.Errorf("%s: %w", name, err)
		}
		if sc.tear != nil {
			tears = append(tears, fmt.Errorf("%s: %w", name, sc.tear))
		}
	}
	return tears, nil
}

// flaking logs and counts the tears a read of recovered segments met:
// recovery already salvaged the crash tail, so a tear now means the disk
// is flaking under a live store. The intact prefix of each torn file was
// served.
func (d *Disk) flaking(what string, tears []error) {
	for _, tear := range tears {
		d.opts.Logger.Error("store: "+what+" tear", "dir", d.dir, "err", tear)
		d.opts.Metrics.RecoveryErrors.Add(1)
	}
}

// segMeta is the in-memory index entry for one uncompacted segment file.
type segMeta struct {
	index     uint64
	path      string
	firstWall int64 // earliest batch wall clock (valid when batches > 0)
	lastWall  int64
	final     Chain // chain after the last intact record
	batches   int
}

// Disk is one shard's durable history: an append-only, hash-chained
// segment log with checkpointed retention. Call order: Replay once,
// before the first Append; then any number of Appends and ranged reads;
// then Close. Not concurrency-safe: its owner serialises every call, as
// a collector shard does under its lock.
type Disk struct {
	dir  string
	opts Options

	err         error // poisoned after an I/O failure
	closedStore bool

	f         *os.File  // active segment, nil until the first Append
	w         io.Writer // f, possibly wrapped by opts.WrapWriter
	active    segMeta   // f's index entry, final set when it closes
	segIndex  uint64    // highest segment index ever used
	segStart  time.Time // when the active segment was opened
	segBytes  int64
	sinceSync int

	chain Chain

	closed    []segMeta // closed, uncompacted segments, ascending index
	ckptIndex uint64    // highest checkpoint index (0 = none)
	archive   []byte
	// compactGen counts successful compactions this process has run (and
	// starts at 1 after recovery when a checkpoint exists), so readers
	// caching decoded history can tell when the archive/raw split moved.
	compactGen uint64

	scratch []byte
}

// Open opens (creating as needed) one shard's disk store and runs crash
// recovery: stale files from an interrupted compaction are removed, the
// last segment's torn tail or torn header — if the previous process died
// mid-append or mid-roll — is discarded, and the hash chain is rebuilt so
// the next Append continues it. If retention is configured, aged-out
// segments compact immediately.
func Open(dir string, opts Options) (*Disk, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{dir: dir, opts: opts}
	if err := d.recover(); err != nil {
		return nil, err
	}
	d.maybeCompact(opts.Now())
	return d, nil
}

// recover surveys the directory and acts on what it found: debris goes
// (a final segment torn inside its header with it — nothing in it was
// ever acked), a torn tail is cut off, every note and problem is logged
// and every problem counted once, and the chain cursor is set so the
// next Append continues it. Problems cost history, never availability:
// what still chain-verifies is kept, and so is a file whose header will
// not read, for the operator.
func (d *Disk) recover() error {
	f, err := survey(d.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, path := range f.debris {
		os.Remove(path)
	}
	for _, n := range f.notes {
		d.opts.Logger.Warn("store: discarding crash damage", "dir", d.dir, "note", n)
	}
	for _, p := range f.problems {
		d.opts.Logger.Error("store: history lost or untrustworthy", "dir", d.dir, "problem", p)
	}
	d.opts.Metrics.RecoveryErrors.Add(uint64(len(f.problems)))
	if tail := f.tornTail; tail != nil {
		// The crash salvage case: truncate the torn tail so the surviving
		// prefix re-verifies cleanly forever after.
		d.opts.Metrics.SalvagedTails.Add(1)
		if err := os.Truncate(tail.path, tail.goodOff); err != nil {
			return fmt.Errorf("store: salvage truncate: %w", err)
		}
	}
	d.ckptIndex, d.archive, d.chain, d.segIndex = f.ckptIndex, f.archive, f.final, f.segIndex
	for _, sc := range f.segs {
		d.closed = append(d.closed, sc.segMeta)
	}
	return nil
}

// Replay streams the recovered history: the archive blob (if a checkpoint
// exists), then every surviving raw batch in commit order. The Batch
// passed to batchFn aliases scan buffers and is valid only during the
// callback. Must run before the first Append.
func (d *Disk) Replay(archiveFn func(archive []byte) error, batchFn func(Batch) error) error {
	if d.err != nil {
		return d.err
	}
	if len(d.archive) > 0 && archiveFn != nil {
		if err := archiveFn(d.archive); err != nil {
			return err
		}
	}
	if batchFn == nil {
		return nil
	}
	tears, err := walk(d.closed, func(b Batch) error {
		d.opts.Metrics.ReplayedBatches.Add(1)
		return batchFn(b)
	})
	d.flaking("replay", tears)
	if err != nil {
		return fmt.Errorf("store: replay %w", err)
	}
	return nil
}

// maxSegmentBytes rolls the active segment early, bounding the worst-case
// torn tail scan.
const maxSegmentBytes = 64 << 20

// shouldRoll reports whether the active segment is past its time window
// or size bound.
func (d *Disk) shouldRoll(now time.Time) bool {
	return now.Sub(d.segStart) >= d.opts.Window || d.segBytes >= maxSegmentBytes
}

// fail poisons the store with its first I/O error.
func (d *Disk) fail(err error) error {
	if d.err == nil {
		d.err = err
		d.opts.Metrics.AppendErrors.Add(1)
	}
	return d.err
}

// Append commits one batch: framed, hash-chained, and — at the default
// SyncEvery=1 — fsynced before returning, so a nil return means the
// batch survives SIGKILL. This is the commit a shard performs before
// acking a chunk. An error poisons the store: every later Append fails
// fast with it.
func (d *Disk) Append(b Batch) error {
	if d.err != nil {
		return d.err
	}
	if d.closedStore {
		return errStoreClosed
	}
	start := time.Now()
	now := d.opts.Now()
	if d.f == nil || d.shouldRoll(now) {
		if err := d.roll(now); err != nil {
			return d.fail(err)
		}
	}
	d.scratch = appendBatchBody(d.scratch[:0], b)
	body := d.scratch
	nextChain, err := writeRecord(d.w, recBatch, body, d.chain)
	if err != nil {
		return d.fail(err)
	}
	d.chain = nextChain
	d.segBytes += int64(trace.SegmentFrameHdrLen + len(body) + ChainLen)
	if a := &d.active; a.batches == 0 || b.WallNano < a.firstWall {
		a.firstWall = b.WallNano
	}
	d.active.batches++
	d.active.lastWall = b.WallNano
	d.sinceSync++
	if d.sinceSync >= d.opts.SyncEvery {
		if err := d.sync(); err != nil {
			return d.fail(err)
		}
	}
	m := d.opts.Metrics
	m.Appends.Add(1)
	m.AppendedBytes.Add(uint64(trace.SegmentFrameHdrLen + len(body) + ChainLen))
	m.AppendSeconds.ObserveSince(start)
	return nil
}

// sync forces the active segment to stable storage.
func (d *Disk) sync() error {
	if d.f == nil || d.sinceSync == 0 {
		return nil
	}
	start := time.Now()
	if err := d.f.Sync(); err != nil {
		return err
	}
	d.sinceSync = 0
	d.opts.Metrics.Syncs.Add(1)
	d.opts.Metrics.SyncSeconds.ObserveSince(start)
	return nil
}

// roll closes the active segment (if any), gives compaction a chance,
// and opens the next segment with the current chain as its start.
func (d *Disk) roll(now time.Time) error {
	if d.f != nil {
		if err := d.closeActive(); err != nil {
			return err
		}
		d.maybeCompact(now)
	}
	d.segIndex++
	path := segPath(d.dir, d.segIndex)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	var w io.Writer = f
	if d.opts.WrapWriter != nil {
		w = d.opts.WrapWriter(f)
	}
	hdr := appendSegHeader(nil, d.segIndex, d.chain)
	if _, err := w.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("store: segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: segment header sync: %w", err)
	}
	if err := syncDir(d.dir); err != nil {
		f.Close()
		return err
	}
	d.f = f
	d.w = w
	d.active = segMeta{index: d.segIndex, path: path}
	d.segStart = now
	d.segBytes = int64(len(hdr))
	d.sinceSync = 0
	d.opts.Metrics.Segments.Add(1)
	return nil
}

// closeActive fsyncs and closes the active segment; once both succeed it
// is indexed as closed (compactable).
func (d *Disk) closeActive() error {
	err := d.sync()
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		d.active.final = d.chain
		d.closed = append(d.closed, d.active)
	}
	d.f = nil
	d.w = nil
	return err
}

// maybeCompact folds the prefix of closed segments whose every batch has
// aged past Retention into the checkpoint archive, then deletes the raw
// files. Best-effort: any failure leaves the raw segments in place and
// is retried at the next roll.
func (d *Disk) maybeCompact(now time.Time) {
	if d.opts.Retention <= 0 || d.opts.Compact == nil || len(d.closed) == 0 {
		return
	}
	// The boundary is half-open, matching the read path's [from, to)
	// windows: a batch committed exactly at now-Retention is the oldest
	// moment still inside the retained window, so a segment whose last
	// batch lands on the cutoff stays raw (strictly-older-only folds).
	// Folding it would make the same instant answer at folded granularity
	// from one query and raw granularity from the next — the edge window
	// must live on exactly one side.
	cutoff := now.Add(-d.opts.Retention).UnixNano()
	covered := 0
	for covered < len(d.closed) && d.closed[covered].lastWall < cutoff {
		covered++
	}
	if covered == 0 {
		return
	}
	var batches []Batch
	tears, err := walk(d.closed[:covered], func(b Batch) error {
		b.Payload = append([]byte(nil), b.Payload...)
		batches = append(batches, b)
		return nil
	})
	if err == nil && len(tears) > 0 {
		err = tears[0] // folding a prefix of what is on disk would lose the rest
	}
	if err != nil {
		d.opts.Logger.Error("store: compaction read failed, raw segments kept", "dir", d.dir, "err", err)
		d.opts.Metrics.CompactionErrors.Add(1)
		return
	}
	last := d.closed[covered-1]
	blob, err := d.opts.Compact(d.archive, batches)
	if err != nil {
		d.opts.Logger.Error("store: compactor failed, raw segments kept", "err", err)
		d.opts.Metrics.CompactionErrors.Add(1)
		return
	}
	if err := d.writeCheckpoint(last.index, last.final, blob); err != nil {
		d.opts.Logger.Error("store: checkpoint write failed, raw segments kept", "err", err)
		d.opts.Metrics.CompactionErrors.Add(1)
		return
	}
	// The checkpoint is durable; the raw prefix and the older checkpoint
	// are now redundant. A crash between these removes and the updates
	// below replays into recover's debris cleanup.
	if d.ckptIndex > 0 {
		os.Remove(ckptPath(d.dir, d.ckptIndex))
	}
	for _, sm := range d.closed[:covered] {
		os.Remove(sm.path)
	}
	syncDir(d.dir)
	d.ckptIndex = last.index
	d.archive = blob
	d.closed = append([]segMeta(nil), d.closed[covered:]...)
	d.compactGen++
	d.opts.Metrics.Compactions.Add(1)
	d.opts.Metrics.CompactedBatches.Add(uint64(len(batches)))
}

// writeCheckpoint persists one checkpoint atomically: temp file, fsync,
// rename, directory fsync.
func (d *Disk) writeCheckpoint(index uint64, prevFinal Chain, archive []byte) error {
	path := ckptPath(d.dir, index)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var w io.Writer = f
	if d.opts.WrapWriter != nil {
		w = d.opts.WrapWriter(f)
	}
	hdr := appendSegHeader(nil, index, Chain{})
	_, err = w.Write(hdr)
	if err == nil {
		body := appendCheckpointBody(nil, index, prevFinal, archive)
		_, err = writeRecord(w, recCheckpoint, body, Chain{})
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(d.dir)
}

// Close flushes and closes the store. Idempotent.
func (d *Disk) Close() error {
	if d.closedStore {
		return nil
	}
	d.closedStore = true
	if d.f == nil {
		return d.err
	}
	err := d.closeActive()
	if d.err == nil {
		d.err = errStoreClosed
	}
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
