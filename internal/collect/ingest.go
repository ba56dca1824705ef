package collect

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"tempest/instrument"
	"tempest/internal/nodefold"
	"tempest/internal/store"
	"tempest/internal/trace"
)

// The write path: everything that changes a node's state. Connections
// and IngestTrace enter a shard through resume, frame, bulk and
// finishBulk; startup replay calls replayArchive and replayBatch
// directly, on the shard's own goroutine, before anything else can reach
// the shard. The read path (query.go, window.go) shares only the
// shard-owned state behind do.

// append commits one batch to the shard's store, stamped wall, and
// reports whether it is durable. A failed append degrades the shard.
func (sh *shard) append(ns *nodeState, seq uint64, flags uint8, wall int64, payload []byte, what string) bool {
	if sh.store == nil {
		return false
	}
	err := sh.store.Append(store.Batch{
		Node:     ns.id,
		Rank:     ns.rank,
		Seq:      seq,
		Flags:    flags,
		WallNano: wall,
		Payload:  payload,
	})
	if err != nil {
		sh.degrade(what, ns, err)
		return false
	}
	return true
}

// degrade drops the shard to memory-only ingest — loudly — instead of
// wedging the fleet on a dying disk.
func (sh *shard) degrade(what string, ns *nodeState, err error) {
	sh.c.opts.Logger.Error(what+"; shard degraded to memory-only ingest",
		"shard", sh.id, "node", ns.id, "err", err)
	sh.store.Close()
	sh.store = nil
	sh.c.noteDegrade()
}

// persist appends one accepted batch to the shard's store before the
// caller acks it, and returns the commit clock it stamped the batch with:
// the batch's place in ranked history, on disk or not.
func (sh *shard) persist(ns *nodeState, seq uint64, flags uint8, payload []byte) (wall int64) {
	wall = sh.c.opts.Now().UnixNano()
	if sh.append(ns, seq, flags, wall, payload, "store append failed") {
		ns.symsStored = ns.sym.Len()
	}
	return wall
}

// persistBulk re-encodes one bulk-path batch as a self-contained chunk —
// the symbols registered since the last stored batch plus the events —
// so the durable stream replays through the same dense-id chunk decoder
// as shipped frames. Flags always carry FlagBulk: replayed bulk batches
// must not advance the ship resume cursor.
func (sh *shard) persistBulk(ns *nodeState, flags uint8, events []trace.Event) (wall int64) {
	var payload []byte
	if sh.store != nil {
		var err error
		if payload, _, err = encodeChunk(events, ns.sym, ns.symsStored); err != nil {
			// Events the scanner just decoded will not encode: a codec
			// invariant broke. Degrade rather than persist a gap.
			sh.degrade("bulk batch re-encode failed", ns, err)
		}
	}
	return sh.persist(ns, 0, store.FlagBulk|flags, payload)
}

// replayArchive seeds node states from the store's checkpoint archive:
// compacted history whose raw batches are gone. Builders attach
// mid-stream (the archive's symbol table carries the dense-id prefix),
// and the folded hot-spot rankings stay on the node granule by granule for
// ranked windows to pick from, and folded whole for Hotspots to merge.
func (sh *shard) replayArchive(blob []byte) error {
	arch, err := decodeArchive(blob)
	if err != nil {
		sh.c.opts.Logger.Error("store archive undecodable; compacted history dropped",
			"shard", sh.id, "err", err)
		return nil // raw segments still replay
	}
	for _, ent := range arch.nodes {
		sym := ent.symTab()
		ns := sh.newNode(ent.node, ent.rank, sym, true)
		ns.nextSeq = ent.nextSeq
		ns.segments = ent.segments
		ns.lastSeen = sh.c.opts.Now()
		ns.symsStored = sym.Len()
		ns.archEvents = ent.events
		if ent.truncated {
			ns.fold.Builder.SetTruncated(true)
		}
	}
	for _, w := range arch.windows {
		for _, wn := range w.nodes {
			ns, ok := sh.nodes[wn.node]
			if !ok {
				continue
			}
			ns.arch = append(ns.arch, archiveGranule{from: w.fromWall, to: w.toWall, heat: wn.heat})
			for len(ns.archHeat) < len(wn.heat) {
				ns.archHeat = append(ns.archHeat, nil)
			}
			for sid := range wn.heat {
				ns.archHeat[sid] = foldFunctionHeat(ns.archHeat[sid], wn.heat[sid])
			}
		}
	}
	return nil
}

// replayBatch folds one recovered raw batch back into its node — the
// same cursor and decode discipline as live ingest, minus the wire
// metrics (nothing was read off a connection this process).
func (sh *shard) replayBatch(b store.Batch) error {
	ns := sh.node(b.Node, b.Rank)
	ns.lastSeen = time.Unix(0, b.WallNano)
	if b.Flags&store.FlagPolicy != 0 {
		// A persisted directive: Seq carries the policy revision, not a
		// ship sequence number. Restore the latest so the reborn collector
		// re-issues exactly what its predecessor last told the node.
		np := ns.policyState()
		if b.Seq >= np.rev {
			np.rev = b.Seq
			np.payload = append([]byte(nil), b.Payload...)
			np.detail = map[string]bool{}
			if d, err := decodeControl(b.Payload); err == nil {
				for _, f := range d.Funcs {
					if f.Mode == instrument.ModeDetail {
						np.detail[f.Name] = true
					}
				}
			}
		}
		return nil
	}
	if b.Flags&store.FlagBulk != 0 {
		ns.segments++ // bulk batches live outside the ship sequence space
	} else if fresh, _ := ns.admit(b.Seq, "durable history gap (%d..%d lost)"); !fresh {
		return nil // a duplicate that survived a historic race, or a gap
	}
	if b.Flags&store.FlagTruncated != 0 {
		ns.fold.Builder.SetTruncated(true)
	}
	if ns.err != nil {
		return nil
	}
	if b.Flags&store.FlagCoarse != 0 {
		// Coarse reports hold no events: the cursor already advanced
		// above; re-warm the policy ranking and leave the builder alone.
		if sh.c.opts.Policy.Enabled {
			if stats, err := decodeCoarse(b.Payload); err == nil {
				ns.policyState().accumulateCoarse(stats)
			}
		}
		return nil
	}
	batch, err := sh.decode(b.Payload, ns.sym)
	if err != nil {
		ns.err = err
		return nil
	}
	ns.symsStored = ns.sym.Len()
	ns.err = sh.fold(ns, batch, b.WallNano)
	return nil
}

// node returns (creating if needed) the state for one node.
func (sh *shard) node(id, rank uint32) *nodeState {
	ns, ok := sh.nodes[id]
	if !ok {
		ns = sh.newNode(id, rank, trace.NewSymTab(), false)
	}
	return ns
}

// newNode registers a fresh node state: one fold over sym with the
// profile builder and the critical-path analyzer as its consumers.
// midStream is for a node whose stream begins in compacted history.
func (sh *shard) newNode(id, rank uint32, sym *trace.SymTab, midStream bool) *nodeState {
	ns := &nodeState{id: id, rank: rank, sym: sym, fold: nodefold.New(id, sym, sh.c.opts.Unit, midStream, true)}
	sh.nodes[id] = ns
	sh.c.metrics.nodes.Add(1)
	return ns
}

// decode decodes one chunk against a node's symbol table into the shard's
// one decode buffer: the events are the caller's until its next decode.
// Decode and fold run under mu and nothing keeps a batch beyond its fold,
// so live chunks, replay and ranged reads share the buffer.
func (sh *shard) decode(payload []byte, sym *trace.SymTab) ([]trace.Event, error) {
	batch, err := decodeChunk(payload, sym, sh.batch)
	if err == nil {
		sh.batch = batch[:0]
	}
	return batch, err
}

// fold commits one accepted batch, stamped wall, to the node's fold. An
// error is the builder's and poisons the node. Ship, bulk and replay all
// come through here with the clock the batch was stamped with, so a
// restart marks and folds where the first run did.
func (sh *shard) fold(ns *nodeState, batch []trace.Event, wall int64) error {
	b := ns.fold.Builder
	late, resident, marks := b.Late(), b.Resident(), ns.fold.Marks()
	err := ns.fold.Commit(batch, wall, sh.c.opts.ArchiveGranule)
	sh.c.metrics.lateEvents.Add(b.Late() - late)
	sh.c.metrics.residentSpans.Add(int64(b.Resident() - resident))
	sh.c.metrics.granuleMarks.Add(int64(ns.fold.Marks() - marks))
	return err
}

// take folds one accepted batch, committed at wall, into a healthy node,
// timed and counted; a fold failure poisons the node.
func (sh *shard) take(ns *nodeState, batch []trace.Event, wall int64) error {
	start := time.Now()
	ns.err = sh.fold(ns, batch, wall)
	sh.c.metrics.foldSeconds.ObserveSince(start)
	if ns.err == nil {
		sh.c.metrics.events.Add(uint64(len(batch)))
	}
	return ns.err
}

// admit steps the node's ship sequence cursor over seq, the one place it
// advances — shipped chunks, coarse reports and replayed batches share
// the sequence space. A seq below the cursor is a duplicate (a resend of
// a frame that arrived before the link died). A seq beyond it is a gap:
// the symbols in the hole are unrecoverable, so the node is poisoned
// rather than mis-attributed — gap is the caller's account of how the
// range was lost — and the cursor steps past the hole so the shipper is
// acked instead of resending forever. Only a fresh seq counts as a
// segment.
func (ns *nodeState) admit(seq uint64, gap string) (fresh, dup bool) {
	switch {
	case seq < ns.nextSeq:
		return false, true
	case seq > ns.nextSeq:
		ns.err = fmt.Errorf("collect: node %d: "+gap, ns.id, ns.nextSeq, seq-1)
		ns.nextSeq = seq + 1
		return false, false
	}
	ns.nextSeq = seq + 1
	ns.segments++
	return true, false
}

// ack is a shard's answer to one ingest call, everything the connection
// handler writes back.
type ack struct {
	resume uint64    // the node's next expected ship sequence
	dup    bool      // a resend of a frame already taken
	err    error     // the node is poisoned, or the collector closed
	ctl    *ctlFrame // a policy directive to piggyback after the ack
}

// ingest runs one write-path call under the shard's lock: fn gets the
// node's state, created on first sight and stamped as seen now, and
// fills in the ack, which leaves with the node's cursor.
func (sh *shard) ingest(node, rank uint32, fn func(ns *nodeState, a *ack)) (a ack) {
	closed := sh.do(func() {
		ns := sh.node(node, rank)
		ns.lastSeen = sh.c.opts.Now()
		fn(ns, &a)
		a.resume = ns.nextSeq
	})
	if closed != nil {
		a.err = closed
	}
	return a
}

// resume answers a connection's hello. A (re)connecting node gets its
// current directive re-issued: control frames lost with a dead link are
// recovered here, not retried individually — full-set semantics make
// that safe.
func (sh *shard) resume(node, rank uint32) ack {
	return sh.ingest(node, rank, func(ns *nodeState, a *ack) {
		a.ctl = ns.policy.currentDirective()
	})
}

// frame takes one shipped frame. Event chunks and coarse bucket reports
// share the ship sequence space and everything up to what the payload
// feeds: the profile or the policy engine.
func (sh *shard) frame(node, rank uint32, seq uint64, kind byte, payload []byte) ack {
	return sh.ingest(node, rank, func(ns *nodeState, a *ack) {
		// Live, a gap can only mean this collector lost state the shipper
		// already had acknowledged.
		switch fresh, dup := ns.admit(seq, "sequence gap (%d..%d lost to a collector restart?)"); {
		case dup:
			a.dup = true // ack it again so the shipper retires it
			return
		case fresh:
			sh.c.metrics.shardSegments[sh.id].Add(1)
			if kind == frameCoarse {
				sh.c.metrics.coarseSegments.Add(1)
			}
		}
		if ns.err != nil {
			a.err = ns.err
			return
		}
		if kind == frameCoarse {
			a.ctl = sh.coarse(ns, seq, payload)
		} else {
			a.ctl, a.err = sh.chunk(ns, seq, payload)
		}
	})
}

// chunk decodes, persists and folds one event chunk. A chunk that will
// not decode is not persisted; one that will not fold already is.
func (sh *shard) chunk(ns *nodeState, seq uint64, payload []byte) (*ctlFrame, error) {
	start := time.Now()
	batch, err := sh.decode(payload, ns.sym)
	sh.c.metrics.decodeSeconds.ObserveSince(start)
	if err != nil {
		ns.err = err
		return nil, err
	}
	// Durable commit before the ack this call triggers: once the shipper
	// retires the chunk, only the store remembers it.
	wall := sh.persist(ns, seq, 0, payload)
	if err := sh.take(ns, batch, wall); err != nil {
		return nil, err
	}
	if !sh.c.opts.Policy.Enabled {
		return nil, nil
	}
	// Detail events are the overhead the budget throttles on.
	ns.policyState().roundEvents += uint64(len(batch))
	return sh.evalPolicy(ns), nil
}

// coarse takes one coarse bucket report: the payload feeds the policy
// engine, not the profile builder. Decode problems are advisory — count,
// drop, ack — a malformed report must never poison the forward event
// stream.
func (sh *shard) coarse(ns *nodeState, seq uint64, payload []byte) *ctlFrame {
	// Persist before the ack even though the payload is advisory: the
	// report consumed a sequence number, and replay must walk the cursor
	// through it or recovery would see a gap and poison the node.
	sh.persist(ns, seq, store.FlagCoarse, payload)
	stats, err := decodeCoarse(payload)
	if err != nil {
		sh.c.metrics.coarseErrors.Add(1)
		return nil
	}
	if !sh.c.opts.Policy.Enabled {
		return nil
	}
	ns.policyState().accumulateCoarse(stats)
	return sh.evalPolicy(ns)
}

// bulk takes one decoded batch of a bulk upload. The batch carries the
// upload's own symbol ids, which resolve in sym; they are folded into
// the node's cumulative table (idempotent by name) and rewritten in
// place — the batch is the caller's, lent for the call.
func (sh *shard) bulk(node, rank uint32, batch []trace.Event, sym *trace.SymTab) ack {
	return sh.ingest(node, rank, func(ns *nodeState, a *ack) {
		ns.segments++
		sh.c.metrics.shardSegments[sh.id].Add(1)
		if a.err = ns.err; a.err != nil {
			return
		}
		for i := range batch {
			e := &batch[i]
			switch e.Kind {
			case trace.KindEnter, trace.KindExit, trace.KindMarker:
				name, err := sym.Name(e.FuncID)
				if err != nil {
					ns.err, a.err = err, err
					return
				}
				e.FuncID = ns.sym.Register(name)
			}
		}
		a.err = sh.take(ns, batch, sh.persistBulk(ns, 0, batch))
	})
}

// finishBulk ends a bulk upload, recording durably whether its stream
// was cut short (an empty flagged chunk).
func (sh *shard) finishBulk(node, rank uint32, truncated bool) {
	sh.ingest(node, rank, func(ns *nodeState, _ *ack) {
		if truncated {
			ns.fold.Builder.SetTruncated(true)
			sh.persistBulk(ns, store.FlagTruncated, nil)
		}
	})
}

// serveShipStream handles one shipper connection: resume handshake, then
// frames, each acked with the node's next expected sequence number.
// Control directives from the policy engine piggyback on the downstream
// channel right after the ack that triggered them; a fresh connection
// re-issues the node's current directive during the handshake, which is
// how control frames lost with a dead link are recovered.
func (c *Collector) serveShipStream(conn net.Conn, br *bufio.Reader) {
	h, err := readHelloTail(br)
	if err != nil {
		c.metrics.ingestErrors.Add(1)
		return
	}
	sh := c.shardFor(h.NodeID)
	a := sh.resume(h.NodeID, h.Rank)
	var sentRev uint64
	var frameBuf []byte
	for {
		if err := writeAck(conn, a.resume); err != nil {
			return
		}
		if !c.sendControl(conn, a.ctl, &sentRev) {
			return
		}
		seq, kind, payload, buf, err := readFrame(br, frameBuf)
		frameBuf = buf
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.metrics.ingestErrors.Add(1)
			}
			return
		}
		c.metrics.segments.Add(1)
		a = sh.frame(h.NodeID, h.Rank, seq, kind, payload)
		if a.dup {
			c.metrics.dedupDrops.Add(1)
		}
		if a.err != nil {
			c.metrics.ingestErrors.Add(1)
		}
	}
}

// sendControl writes ctl down the connection when it advances the
// connection's last-sent revision; reports whether the link survived.
// Stale frames (a directive the connection already carried) are skipped,
// not errors — the shipper's own revision dedup would drop them anyway.
func (c *Collector) sendControl(conn net.Conn, ctl *ctlFrame, sentRev *uint64) bool {
	if ctl == nil || ctl.rev <= *sentRev {
		return true
	}
	if err := writeControl(conn, ctl.rev, ctl.payload); err != nil {
		return false
	}
	*sentRev = ctl.rev
	c.metrics.controlFramesSent.Add(1)
	return true
}

// serveBulk ingests one complete trace stream (the offline file format,
// v1 or v2) from the connection — `tempest-collectd -upload` and piped
// tempd output use this path. The per-connection scanner comes from a
// pool and is Reset onto the stream, so bulk ingest reuses decode
// buffers across connections instead of reallocating them.
func (c *Collector) serveBulk(conn net.Conn, br *bufio.Reader) {
	var sc *trace.Scanner
	if pooled := c.scanners.Get(); pooled != nil {
		sc = pooled.(*trace.Scanner)
		if err := sc.Reset(br); err != nil {
			c.metrics.ingestErrors.Add(1)
			c.scanners.Put(sc)
			return
		}
	} else {
		var err error
		sc, err = trace.NewScanner(br)
		if err != nil {
			c.metrics.ingestErrors.Add(1)
			return
		}
	}
	defer c.scanners.Put(sc)
	sh := c.shardFor(sc.NodeID())
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			c.metrics.ingestErrors.Add(1)
			return
		}
		c.metrics.segments.Add(1)
		// The call is synchronous, so lending it the scanner's reused
		// batch buffer is safe: the builder retains nothing.
		if a := sh.bulk(sc.NodeID(), sc.Rank(), batch, sc.Sym()); a.err != nil {
			c.metrics.ingestErrors.Add(1)
			return
		}
	}
	sh.finishBulk(sc.NodeID(), sc.Rank(), sc.Truncated())
}

// IngestTrace folds a whole in-memory trace into the collector through
// the same shard path as network ingest — the programmatic loader for
// tests and local files.
func (c *Collector) IngestTrace(tr *trace.Trace) error {
	if tr == nil {
		return errors.New("collect: nil trace")
	}
	sh := c.shardFor(tr.NodeID)
	// Re-encode through a chunk so symbol registration follows the same
	// dense-id path as shipped streams.
	payload, _, err := encodeChunk(tr.Events, tr.Sym, 0)
	if err != nil {
		return err
	}
	a := sh.resume(tr.NodeID, tr.Rank)
	c.metrics.segments.Add(1)
	if a = sh.frame(tr.NodeID, tr.Rank, a.resume, frameData, payload); a.err != nil {
		return a.err
	}
	c.metrics.bytes.Add(uint64(len(payload)) + frameHdrLen)
	if tr.Truncated {
		sh.finishBulk(tr.NodeID, tr.Rank, true)
	}
	return nil
}
