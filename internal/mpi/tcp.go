package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// TCPTransport carries rank-to-rank messages over TCP connections,
// re-using the same mailbox matching engine as the in-process transport.
// Frames are length-prefixed:
//
//	src   uint32 LE
//	ctx   uint32 LE (communicator context id)
//	tag   int64  LE (two's complement; internal tags are negative)
//	seq   uint64 LE (per-source frame sequence, for reconnect ordering)
//	nbyte uint32 LE
//	payload
//
// Every rank listens on one socket; connections are established lazily on
// first send and cached. A background goroutine per accepted/established
// connection demultiplexes frames into the destination mailbox.
//
// The transport self-heals: dials carry a timeout and bounded, jittered
// exponential backoff; every send gets a write deadline; a connection that
// dies mid-send is redialled and the frame resent (frames are written as
// one buffer, so a peer never observes a torn header). When the budget is
// exhausted the error is classified ErrRankDown, which unblocks collectives
// with a diagnosable failure instead of a hang.
//
// Resend correctness: a resent frame travels over a fresh connection while
// the dying connection's already-delivered frames may still be in its read
// loop, and a write that "failed" (deadline, injected error) may still have
// reached the peer. Each frame therefore carries a per-source sequence
// number; the receiver releases frames to the mailbox strictly in sequence
// order, buffering early arrivals and dropping duplicates, preserving the
// per-(sender, receiver, context, tag) FIFO order MPI matching requires.
type TCPTransport struct {
	rank int
	opts TCPOptions
	ln   net.Listener

	mu       sync.Mutex
	addrs    []string
	peers    map[int]*tcpPeer // outbound state, by destination rank
	accepted []net.Conn       // inbound, closed on shutdown
	closed   bool

	smu     sync.Mutex
	streams map[int]*srcStream // inbound resequencing, by source rank

	jmu sync.Mutex
	jrn *rand.Rand // seeded backoff jitter

	box *mailbox
	wg  sync.WaitGroup
}

// tcpPeer serialises outbound traffic to one destination. Holding its lock
// across dial+write keeps frames whole and retries race-free while other
// destinations proceed in parallel (the old implementation serialised all
// sends behind one transport-wide lock).
type tcpPeer struct {
	mu   sync.Mutex
	conn net.Conn
	seq  uint64 // next frame sequence number for this destination
}

// srcStream resequences inbound frames from one source rank: frames are
// released to the mailbox in seq order no matter which connection carried
// them, and duplicates (seq already released) are dropped.
type srcStream struct {
	next    uint64
	pending map[uint64]inMsg
}

// TCPOptions tunes the transport's self-healing behaviour. The zero value
// selects the defaults noted per field.
type TCPOptions struct {
	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
	// DialAttempts is the dial budget per connection establishment
	// (default 5); attempts are spaced by exponential backoff.
	DialAttempts int
	// DialBackoffBase is the first inter-attempt delay, doubling up to
	// DialBackoffMax (defaults 10ms / 500ms), each jittered ±50 %.
	DialBackoffBase time.Duration
	DialBackoffMax  time.Duration
	// WriteTimeout is the per-send write deadline (default 10s).
	WriteTimeout time.Duration
	// ResendAttempts is how many times a frame whose write failed is
	// resent over a fresh connection before the peer is declared down
	// (default 2).
	ResendAttempts int
	// JitterSeed seeds backoff jitter deterministically (default: a
	// rank-derived constant, so replays with equal seeds align).
	JitterSeed int64
	// Dial overrides the dial function — the fault-injection hook
	// (default net.DialTimeout).
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
	// Sleep overrides backoff sleeping (default time.Sleep).
	Sleep func(time.Duration)
}

func (o TCPOptions) withDefaults(rank int) TCPOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.DialAttempts == 0 {
		o.DialAttempts = 5
	}
	if o.DialBackoffBase == 0 {
		o.DialBackoffBase = 10 * time.Millisecond
	}
	if o.DialBackoffMax == 0 {
		o.DialBackoffMax = 500 * time.Millisecond
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.ResendAttempts == 0 {
		o.ResendAttempts = 2
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = int64(rank)*7919 + 1
	}
	if o.Dial == nil {
		o.Dial = net.DialTimeout
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// NewTCPNode creates the transport endpoint for one rank with default
// options. addrs lists the listen address of every rank (index = rank);
// addrs[rank] must be listenable locally. The returned transport serves
// only its own rank's mailbox: Recv(me, …) requires me == rank.
func NewTCPNode(rank int, addrs []string) (*TCPTransport, error) {
	return NewTCPNodeOpts(rank, addrs, TCPOptions{})
}

// NewTCPNodeOpts is NewTCPNode with explicit self-healing options.
func NewTCPNodeOpts(rank int, addrs []string, opts TCPOptions) (*TCPTransport, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("mpi: rank %d out of range for %d addresses", rank, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d listen %s: %w", rank, addrs[rank], err)
	}
	opts = opts.withDefaults(rank)
	t := &TCPTransport{
		rank:    rank,
		opts:    opts,
		addrs:   append([]string(nil), addrs...),
		ln:      ln,
		peers:   make(map[int]*tcpPeer),
		streams: make(map[int]*srcStream),
		jrn:     rand.New(rand.NewSource(opts.JitterSeed)),
		box:     newMailbox(),
	}
	// Record the actual address (supports ":0" ephemeral ports).
	t.addrs[rank] = ln.Addr().String()
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns this rank's actual listen address.
func (t *TCPTransport) Addr() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[t.rank]
}

// SetPeerAddr updates a peer's dial address (needed when peers use
// ephemeral ports: collect each node's Addr after construction, then
// distribute the full table).
func (t *TCPTransport) SetPeerAddr(rank int, addr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rank < 0 || rank >= len(t.addrs) {
		return fmt.Errorf("mpi: peer rank %d out of range", rank)
	}
	t.addrs[rank] = addr
	return nil
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted = append(t.accepted, conn)
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	var hdr [28]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		src := int(binary.LittleEndian.Uint32(hdr[0:4]))
		ctx := int(binary.LittleEndian.Uint32(hdr[4:8]))
		tag := int(int64(binary.LittleEndian.Uint64(hdr[8:16])))
		seq := binary.LittleEndian.Uint64(hdr[16:24])
		n := binary.LittleEndian.Uint32(hdr[24:28])
		if n > 1<<30 {
			return // corrupt frame; drop the connection
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(conn, data); err != nil {
			return
		}
		if t.deliver(src, seq, inMsg{src: src, ctx: ctx, tag: tag, data: data}) != nil {
			return
		}
	}
}

// deliver resequences one inbound frame and releases every frame that is
// now in order to the mailbox.
func (t *TCPTransport) deliver(src int, seq uint64, msg inMsg) error {
	t.smu.Lock()
	st, ok := t.streams[src]
	if !ok {
		st = &srcStream{pending: make(map[uint64]inMsg)}
		t.streams[src] = st
	}
	if seq < st.next {
		// Duplicate of a frame the sender resent after a write that had
		// in fact reached us; already released.
		t.smu.Unlock()
		return nil
	}
	st.pending[seq] = msg
	// Release in-order frames while still holding smu: box.put never
	// blocks (unbounded queue), and releasing under the lock stops a
	// concurrent read loop from interleaving its newly-ready frames
	// between ours.
	for {
		m, ok := st.pending[st.next]
		if !ok {
			break
		}
		delete(st.pending, st.next)
		st.next++
		if err := t.box.put(m); err != nil {
			t.smu.Unlock()
			return err
		}
	}
	t.smu.Unlock()
	return nil
}

// Size implements Transport.
func (t *TCPTransport) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.addrs)
}

// Send implements Transport. from must equal this node's rank: a TCP node
// only originates its own traffic. A send whose connection dies is
// retried over a fresh dial; exhausting the budget yields an error
// wrapping ErrRankDown.
func (t *TCPTransport) Send(from, to, ctx, tag int, data []byte) error {
	t.mu.Lock()
	size := len(t.addrs)
	closed := t.closed
	t.mu.Unlock()
	if from != t.rank {
		return fmt.Errorf("mpi: TCP node %d cannot send as rank %d", t.rank, from)
	}
	if to < 0 || to >= size {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", to, size)
	}
	if closed {
		return ErrClosed
	}
	if to == t.rank {
		// Local delivery without touching the network.
		return t.box.put(inMsg{src: from, ctx: ctx, tag: tag, data: data})
	}

	p := t.peer(to)
	p.mu.Lock()
	defer p.mu.Unlock()

	// One buffer per frame: a single Write keeps header+payload whole, so
	// a mid-frame failure can be safely resent without a torn prefix
	// confusing the peer (the dead connection is discarded either way).
	// The sequence number is fixed before the first attempt; resends
	// reuse it so the receiver can reorder and deduplicate.
	frame := make([]byte, 28+len(data))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(from))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(ctx))
	binary.LittleEndian.PutUint64(frame[8:16], uint64(int64(tag)))
	binary.LittleEndian.PutUint64(frame[16:24], p.seq)
	binary.LittleEndian.PutUint32(frame[24:28], uint32(len(data)))
	copy(frame[28:], data)
	p.seq++
	var lastErr error
	for attempt := 0; attempt <= t.opts.ResendAttempts; attempt++ {
		conn, err := t.ensureConn(p, to)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return err
			}
			t.box.markDown(to)
			return fmt.Errorf("%w: rank %d at %s: %v", ErrRankDown, to, t.peerAddr(to), err)
		}
		if t.opts.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
		}
		_, werr := conn.Write(frame)
		if werr == nil {
			conn.SetWriteDeadline(time.Time{})
			return nil
		}
		// The connection is unusable: an unknown prefix of the frame may
		// have left the socket. Drop it and resend over a fresh dial.
		lastErr = werr
		conn.Close()
		p.conn = nil
	}
	t.box.markDown(to)
	return fmt.Errorf("%w: rank %d at %s: send failed after %d attempts: %v",
		ErrRankDown, to, t.peerAddr(to), t.opts.ResendAttempts+1, lastErr)
}

// peer returns (creating if needed) the outbound state for rank to.
func (t *TCPTransport) peer(to int) *tcpPeer {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[to]
	if !ok {
		p = &tcpPeer{}
		t.peers[to] = p
	}
	return p
}

func (t *TCPTransport) peerAddr(to int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[to]
}

// ensureConn returns the cached connection or dials a new one with
// timeout, bounded attempts and jittered exponential backoff. The caller
// holds p.mu.
func (t *TCPTransport) ensureConn(p *tcpPeer, to int) (net.Conn, error) {
	if p.conn != nil {
		return p.conn, nil
	}
	backoff := t.opts.DialBackoffBase
	var lastErr error
	for attempt := 0; attempt < t.opts.DialAttempts; attempt++ {
		if attempt > 0 {
			t.opts.Sleep(t.jitter(backoff))
			if backoff *= 2; backoff > t.opts.DialBackoffMax {
				backoff = t.opts.DialBackoffMax
			}
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return nil, ErrClosed
		}
		addr := t.addrs[to]
		t.mu.Unlock()
		c, err := t.opts.Dial("tcp", addr, t.opts.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return nil, ErrClosed
		}
		t.mu.Unlock()
		p.conn = c
		return c, nil
	}
	return nil, fmt.Errorf("dial failed after %d attempts: %w", t.opts.DialAttempts, lastErr)
}

// jitter scales d by a deterministic factor in [0.5, 1.5].
func (t *TCPTransport) jitter(d time.Duration) time.Duration {
	t.jmu.Lock()
	f := 0.5 + t.jrn.Float64()
	t.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// Recv implements Transport for this node's own rank.
func (t *TCPTransport) Recv(me, from, ctx, tag int) (int, int, []byte, error) {
	if me != t.rank {
		return 0, 0, nil, fmt.Errorf("mpi: TCP node %d cannot receive for rank %d", t.rank, me)
	}
	msg, err := t.box.get(from, ctx, tag)
	if err != nil {
		return 0, 0, nil, err
	}
	return msg.src, msg.tag, msg.data, nil
}

// Close implements Transport. It is idempotent and safe against in-flight
// sends and accept/read loops: the closed flag stops new connections from
// registering, the listener unblocks the accept loop, closing established
// connections unblocks blocked reads/writes, and the mailbox wakes pending
// receives with ErrClosed.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	accepted := t.accepted
	t.accepted = nil
	t.mu.Unlock()

	t.ln.Close()
	// In-flight senders hold peer locks for at most one write deadline;
	// taking the lock here avoids racing conn teardown with a retry that
	// would re-establish it after close.
	for _, p := range peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
	for _, c := range accepted {
		c.Close()
	}
	t.box.close()
	t.wg.Wait()
	return nil
}
