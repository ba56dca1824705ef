package collect

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tempest/instrument"
	"tempest/internal/introspect"
	"tempest/internal/trace"
)

// ErrQueueFull reports that a shipped batch was dropped because the
// bounded send queue was at capacity (the collector link is down or
// slower than the node produces events).
var ErrQueueFull = errors.New("collect: ship queue full, batch dropped")

// ErrShipperClosed reports a Ship call after Close.
var ErrShipperClosed = errors.New("collect: shipper closed")

const (
	// dialTimeout bounds one dial attempt.
	dialTimeout = 2 * time.Second
	// writeTimeout is the per-frame write deadline.
	writeTimeout = 10 * time.Second
)

// ShipperOptions tunes the node-side shipping client. The zero value
// selects the defaults noted per field.
type ShipperOptions struct {
	// QueueLen bounds the unacknowledged chunk queue (default 256).
	// When the queue is full, Ship drops the batch and accounts for it
	// (Stats().DroppedSegments / DroppedEvents) instead of blocking the
	// instrumented program — backpressure never propagates into the
	// profiled code path.
	QueueLen int
	// DialBackoffBase/DialBackoffMax shape the jitterless reconnect
	// backoff: the delay starts at base and doubles up to max (defaults
	// 20ms / 1s). The shipper redials forever; only Close stops it.
	DialBackoffBase time.Duration
	DialBackoffMax  time.Duration
	// FlushTimeout bounds how long Close waits for the queue to drain
	// (default 5s).
	FlushTimeout time.Duration
	// Dial overrides the dial function — the fault-injection hook
	// (default net.DialTimeout; matches faultinject.Dialer).
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
	// Sleep overrides backoff sleeping (default time.Sleep).
	Sleep func(time.Duration)
	// OnControl receives control directives the collector piggybacks on
	// the downstream channel — full desired instrumentation sets, already
	// deduplicated by revision (stale or repeated revisions never reach
	// the callback). It runs on the shipper's downstream reader
	// goroutine; tempest-live wires LiveSession.ApplyControl here, which
	// only queues, so the reader is never blocked. Nil ignores control
	// frames (they are still revision-tracked and counted).
	OnControl func(instrument.Directive)
	// Introspect receives the shipper's self-observability metrics (queue
	// depth, resend/reconnect counters, ack round-trip latency). Nil means
	// the process-wide introspect.Default() registry.
	Introspect *introspect.Registry
}

func (o ShipperOptions) withDefaults() ShipperOptions {
	if o.QueueLen == 0 {
		o.QueueLen = 256
	}
	if o.DialBackoffBase == 0 {
		o.DialBackoffBase = 20 * time.Millisecond
	}
	if o.DialBackoffMax == 0 {
		o.DialBackoffMax = time.Second
	}
	if o.FlushTimeout == 0 {
		o.FlushTimeout = 5 * time.Second
	}
	if o.Dial == nil {
		o.Dial = net.DialTimeout
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// ShipperStats is the shipper's cumulative accounting.
type ShipperStats struct {
	// EnqueuedSegments/EnqueuedEvents made it into the send queue.
	EnqueuedSegments uint64
	EnqueuedEvents   uint64
	// AckedSegments were confirmed delivered by the collector.
	AckedSegments uint64
	// DroppedSegments/DroppedEvents were lost: rejected by a full queue,
	// or still undelivered when Close's flush deadline expired.
	DroppedSegments uint64
	DroppedEvents   uint64
	// Resends counts frames rewritten after a connection died.
	Resends uint64
	// Reconnects counts connection (re-)establishments after the first.
	Reconnects uint64
	// DialFailures counts failed dial attempts.
	DialFailures uint64
	// CoarseSegments counts coarse bucket reports accepted into the queue.
	CoarseSegments uint64
	// ControlFrames counts control directives received on the downstream
	// channel; ControlStale counts those dropped as duplicate/stale
	// revisions (reconnect re-issues, reordered frames).
	ControlFrames uint64
	ControlStale  uint64
}

// chunk is one queued, already-encoded frame payload.
type chunk struct {
	seq     uint64
	kind    byte
	payload []byte
	events  int
	sent    bool      // sent at least once on some connection
	sentAt  time.Time // when the latest send hit the wire (for ack RTT)
}

// Shipper streams trace batches from one node to a collector. It is the
// node side of fleet mode: Ship encodes a drained event batch into a
// self-contained chunk and enqueues it; a background sender maintains
// the connection (dial backoff, reconnect, resend from the collector's
// resume cursor) and retires chunks as the collector acknowledges them.
// Chunks survive in the queue until acknowledged, so a link that dies
// mid-frame loses nothing — the collector's sequence cursor drops the
// duplicate halves.
//
// Shutdown contract: Close flushes the bounded queue with a deadline
// (ShipperOptions.FlushTimeout). It blocks until every enqueued chunk is
// acknowledged or the deadline expires, then reports loss explicitly:
// a nil error means the collector holds everything that was ever
// enqueued; otherwise the error wraps ErrQueueFull drops and/or the
// flush-deadline remainder, and Stats().DroppedSegments/DroppedEvents
// hold the exact counts. A tempest-live exit therefore never loses
// shipped data silently.
type Shipper struct {
	addr   string
	nodeID uint32
	rank   uint32
	opts   ShipperOptions

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []chunk // unacked, FIFO by seq
	cursor     int     // index into queue of the next chunk to send
	nextSeq    uint64
	symsSent   int
	pendingDrp uint64 // events dropped but not yet accounted in a shipped KindDrop
	closing    bool   // Ship rejects new work; sender drains then exits
	stopped    bool   // sender must exit now; undelivered chunks are lost
	connBroken bool   // current connection died; sender must redial
	conn       net.Conn
	stats      ShipperStats
	lastRev    uint64 // highest control revision seen (dedup/reorder guard)

	ackRTT *introspect.Distribution // send-to-ack latency per retired chunk

	done chan struct{}
}

// NewShipper starts a shipper for one node's stream to the collector at
// addr. The background sender runs until Close.
func NewShipper(addr string, nodeID, rank uint32, opts ShipperOptions) *Shipper {
	s := &Shipper{
		addr:   addr,
		nodeID: nodeID,
		rank:   rank,
		opts:   opts.withDefaults(),
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.registerIntrospect()
	go s.run()
	return s
}

// registerIntrospect wires the shipper's accounting into its introspect
// registry. Counters are sampled from Stats at render time (FuncCounter),
// so a re-created shipper in the same process rebinds the series rather
// than double-counting.
func (s *Shipper) registerIntrospect() {
	ir := s.opts.Introspect
	if ir == nil {
		ir = introspect.Default()
	}
	s.ackRTT = ir.Distribution("tempest_ship_ack_rtt_seconds", "Send-to-ack round trip per acknowledged chunk.")
	ir.Func("tempest_ship_queue_depth", "Unacknowledged chunks in the shipper's bounded send queue.",
		func() float64 { return float64(s.Queued()) })
	for _, m := range []struct {
		name, help string
		get        func(ShipperStats) uint64
	}{
		{"tempest_ship_enqueued_segments_total", "Chunks accepted into the send queue.", func(st ShipperStats) uint64 { return st.EnqueuedSegments }},
		{"tempest_ship_acked_segments_total", "Chunks the collector confirmed delivered.", func(st ShipperStats) uint64 { return st.AckedSegments }},
		{"tempest_ship_dropped_segments_total", "Chunks lost to a full queue or the close deadline.", func(st ShipperStats) uint64 { return st.DroppedSegments }},
		{"tempest_ship_resends_total", "Frames rewritten after a connection died.", func(st ShipperStats) uint64 { return st.Resends }},
		{"tempest_ship_reconnects_total", "Connection re-establishments after the first.", func(st ShipperStats) uint64 { return st.Reconnects }},
		{"tempest_ship_dial_failures_total", "Failed dial attempts.", func(st ShipperStats) uint64 { return st.DialFailures }},
		{"tempest_ship_coarse_segments_total", "Coarse bucket reports accepted into the send queue.", func(st ShipperStats) uint64 { return st.CoarseSegments }},
		{"tempest_ship_control_frames_total", "Control directives received from the collector.", func(st ShipperStats) uint64 { return st.ControlFrames }},
		{"tempest_ship_control_stale_total", "Control directives dropped as stale/duplicate revisions.", func(st ShipperStats) uint64 { return st.ControlStale }},
	} {
		get := m.get
		ir.FuncCounter(m.name, m.help, func() float64 { return float64(get(s.Stats())) })
	}
}

// Ship encodes one drained batch (plus any symbols registered since the
// previous call) and enqueues it. It never blocks on the network: when
// the bounded queue is full the batch is dropped, accounted in Stats,
// and ErrQueueFull returned; the next accepted batch carries a KindDrop
// event so the collector-side profile records the loss too. Batches must
// arrive in record order (per-lane order is the Builder's contract);
// LiveSession's drain loop guarantees this.
func (s *Shipper) Ship(events []trace.Event, sym *trace.SymTab) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		s.stats.DroppedSegments++
		s.stats.DroppedEvents += uint64(len(events))
		return ErrShipperClosed
	}
	if len(events) == 0 && (sym == nil || sym.Len() == s.symsSent) {
		return nil
	}
	if len(s.queue) >= s.opts.QueueLen {
		s.stats.DroppedSegments++
		s.stats.DroppedEvents += uint64(len(events))
		s.pendingDrp += uint64(len(events))
		return ErrQueueFull
	}
	if s.pendingDrp > 0 && len(events) > 0 {
		// Account the loss inside the stream itself: the collector's
		// Builder folds this into the profile's DroppedEvents.
		drop := trace.Event{Kind: trace.KindDrop, TS: events[0].TS, Lane: events[0].Lane, Aux: s.pendingDrp}
		events = append([]trace.Event{drop}, events...)
		s.pendingDrp = 0
	}
	payload, symCount, err := encodeChunk(events, sym, s.symsSent)
	if err != nil {
		s.stats.DroppedSegments++
		s.stats.DroppedEvents += uint64(len(events))
		return err
	}
	s.symsSent = symCount
	s.queue = append(s.queue, chunk{seq: s.nextSeq, kind: frameData, payload: payload, events: len(events)})
	s.nextSeq++
	s.stats.EnqueuedSegments++
	s.stats.EnqueuedEvents += uint64(len(events))
	s.cond.Broadcast()
	return nil
}

// ShipCoarse enqueues one coarse instrumentation bucket report (the
// output of instrument.FlushCoarse) for the collector's policy engine.
// Coarse reports ride the same sequenced, checksummed, deduplicated
// frame stream as event chunks, so the durable store's replay stays
// gap-free, but they are advisory: a full queue drops the report (the
// buckets' next flush re-accumulates) and the collector never lets a
// bad coarse frame poison the node's profile.
func (s *Shipper) ShipCoarse(stats []instrument.CoarseStat) error {
	if len(stats) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrShipperClosed
	}
	if len(s.queue) >= s.opts.QueueLen {
		s.stats.DroppedSegments++
		return ErrQueueFull
	}
	s.queue = append(s.queue, chunk{seq: s.nextSeq, kind: frameCoarse, payload: encodeCoarse(stats)})
	s.nextSeq++
	s.stats.EnqueuedSegments++
	s.stats.CoarseSegments++
	s.cond.Broadcast()
	return nil
}

// Stats returns a snapshot of the shipper's accounting.
func (s *Shipper) Stats() ShipperStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Queued reports the number of unacknowledged chunks.
func (s *Shipper) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Close flushes and stops the shipper. It blocks until every enqueued
// chunk is acknowledged by the collector or FlushTimeout expires —
// whichever comes first — then tears the connection down. The returned
// error is nil only if nothing was ever dropped: otherwise it reports
// the queue-full drops accumulated while running and any chunks the
// flush deadline abandoned (also visible in Stats). Close is idempotent;
// concurrent Ship calls return ErrShipperClosed.
func (s *Shipper) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.done
		return s.closeErr()
	}
	s.closing = true
	s.cond.Broadcast()
	deadline := time.AfterFunc(s.opts.FlushTimeout, func() {
		s.mu.Lock()
		s.abortLocked()
		s.mu.Unlock()
	})
	for len(s.queue) > 0 && !s.stopped {
		s.cond.Wait()
	}
	s.abortLocked()
	s.mu.Unlock()
	deadline.Stop()
	<-s.done
	return s.closeErr()
}

// abortLocked forces the sender to exit, counting undelivered chunks as
// dropped. Callers hold s.mu.
func (s *Shipper) abortLocked() {
	if s.stopped {
		return
	}
	s.stopped = true
	for _, c := range s.queue {
		s.stats.DroppedSegments++
		s.stats.DroppedEvents += uint64(c.events)
	}
	s.queue = nil
	s.cursor = 0
	if s.conn != nil {
		s.conn.Close()
	}
	s.cond.Broadcast()
}

// closeErr summarises loss after shutdown.
func (s *Shipper) closeErr() error {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	if st.DroppedSegments == 0 {
		return nil
	}
	return fmt.Errorf("%w: %d segments (%d events) undelivered", ErrQueueFull, st.DroppedSegments, st.DroppedEvents)
}

// run is the background sender: connect, handshake, stream frames,
// repeat on failure until stopped.
func (s *Shipper) run() {
	defer close(s.done)
	first := true
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closing && !s.stopped {
			s.cond.Wait()
		}
		if s.stopped || (s.closing && len(s.queue) == 0) {
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()

		conn := s.connect()
		if conn == nil {
			return // stopped while dialling
		}
		if !first {
			s.mu.Lock()
			s.stats.Reconnects++
			s.mu.Unlock()
		}
		first = false
		resume, err := s.handshake(conn)
		if err != nil {
			conn.Close()
			// A dial that succeeds but whose handshake dies (a proxy that
			// accepts and drops, a collector mid-restart) must not spin.
			s.opts.Sleep(s.opts.DialBackoffBase)
			continue
		}
		s.mu.Lock()
		s.conn = conn
		s.connBroken = false
		// Trim everything the collector already has.
		for len(s.queue) > 0 && s.queue[0].seq < resume {
			s.retireHeadLocked()
		}
		s.cursor = 0
		s.mu.Unlock()

		ackDone := make(chan struct{})
		go s.readDownstream(conn, ackDone)
		s.sendLoop(conn)
		conn.Close()
		<-ackDone
		s.mu.Lock()
		s.conn = nil
		s.cursor = 0 // resend unacked chunks on the next connection
		s.mu.Unlock()
	}
}

// retireHeadLocked pops the acknowledged queue head. Callers hold s.mu.
func (s *Shipper) retireHeadLocked() {
	if at := s.queue[0].sentAt; !at.IsZero() {
		s.ackRTT.Observe(time.Since(at).Seconds())
	}
	s.queue = s.queue[1:]
	if s.cursor > 0 {
		s.cursor--
	}
	s.stats.AckedSegments++
}

// connect dials with capped exponential backoff until it succeeds or the
// shipper is stopped (returns nil).
func (s *Shipper) connect() net.Conn {
	backoff := s.opts.DialBackoffBase
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			return nil
		}
		if attempt > 0 {
			s.opts.Sleep(backoff)
			if backoff *= 2; backoff > s.opts.DialBackoffMax {
				backoff = s.opts.DialBackoffMax
			}
		}
		conn, err := s.opts.Dial("tcp", s.addr, dialTimeout)
		if err != nil {
			s.mu.Lock()
			s.stats.DialFailures++
			s.mu.Unlock()
			continue
		}
		return conn
	}
}

// handshakeTimeout bounds the hello/resume exchange.
const handshakeTimeout = 5 * time.Second

// handshake sends the hello and reads the collector's resume cursor —
// a downstream ack frame. The collector may follow it immediately with
// its current control directive; that (and everything after) belongs to
// the downstream reader, which starts once the handshake returns.
func (s *Shipper) handshake(conn net.Conn) (uint64, error) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	if err := writeHello(conn, hello{NodeID: s.nodeID, Rank: s.rank}); err != nil {
		return 0, err
	}
	df, _, err := readDown(conn, nil)
	if err != nil {
		return 0, err
	}
	if df.kind != downAck {
		return 0, fmt.Errorf("%w: handshake expected resume ack, got kind %d", errWire, df.kind)
	}
	return df.next, nil
}

// sendLoop streams queued frames over one connection until it breaks,
// the shipper stops, or a graceful close finishes draining.
func (s *Shipper) sendLoop(conn net.Conn) {
	for {
		s.mu.Lock()
		for s.cursor >= len(s.queue) && !s.stopped && !s.connBroken {
			if s.closing && len(s.queue) == 0 {
				break
			}
			s.cond.Wait()
		}
		if s.stopped || s.connBroken || (s.closing && len(s.queue) == 0) {
			s.mu.Unlock()
			return
		}
		c := s.queue[s.cursor]
		resend := c.sent
		s.queue[s.cursor].sent = true
		s.queue[s.cursor].sentAt = time.Now()
		s.cursor++
		if resend {
			s.stats.Resends++
		}
		s.mu.Unlock()

		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := writeFrame(conn, c.seq, c.kind, c.payload); err != nil {
			return
		}
		conn.SetWriteDeadline(time.Time{})
	}
}

// readDownstream consumes the collector→shipper channel: acks retire
// queue heads, control frames carry instrumentation directives. Any
// read or decode error — including a checksum-corrupt control frame —
// flags the sender to redial rather than guessing at stream state; the
// forward queue is untouched, so exactly-once delivery is preserved and
// the collector re-issues its policy on the reconnect handshake.
func (s *Shipper) readDownstream(conn net.Conn, done chan<- struct{}) {
	defer close(done)
	var buf []byte
	for {
		df, nbuf, err := readDown(conn, buf)
		if err != nil {
			s.mu.Lock()
			s.connBroken = true
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		buf = nbuf
		switch df.kind {
		case downAck:
			s.mu.Lock()
			for len(s.queue) > 0 && s.queue[0].seq < df.next {
				s.retireHeadLocked()
			}
			s.cond.Broadcast()
			s.mu.Unlock()
		case downCtl:
			s.mu.Lock()
			s.stats.ControlFrames++
			stale := df.rev <= s.lastRev
			if stale {
				s.stats.ControlStale++
			} else {
				s.lastRev = df.rev
			}
			cb := s.opts.OnControl
			s.mu.Unlock()
			if !stale && cb != nil {
				cb(df.ctl)
			}
		}
	}
}
