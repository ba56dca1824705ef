package collect

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"tempest/internal/parser"
	"tempest/internal/report"
	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// buildTrace produces a deterministic single-node trace: calls cycles of
// enter/sample/exit across the named functions on a virtual clock.
// Sample values are exact in milli-degrees so the ship-mode quantisation
// round-trips them bit-for-bit, like the trace file codec does.
func buildTrace(t testing.TB, node uint32, funcs []string, calls int) *trace.Trace {
	t.Helper()
	clk := vclock.NewVirtualClock()
	tr, err := trace.NewTracer(trace.Config{Clock: clk, NodeID: node, Rank: node, LaneBufferCap: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	lane := tr.NewLane()
	ids := make([]uint32, len(funcs))
	for i, name := range funcs {
		ids[i] = tr.RegisterFunc(name)
	}
	for i := 0; i < calls; i++ {
		f := ids[i%len(ids)]
		clk.Advance(time.Millisecond)
		lane.Enter(f)
		clk.Advance(time.Millisecond)
		tr.Sample(0, 40+float64(node)+0.25*float64(i%8)+float64(i%len(ids)))
		clk.Advance(time.Duration(1+i%3) * time.Millisecond)
		if err := lane.Exit(f); err != nil {
			t.Fatal(err)
		}
	}
	return tr.Finish()
}

// offlineNodeProfile parses a trace exactly like tempest-parse does:
// through the file codec (write + read back), then parser.Parse.
func offlineNodeProfile(t testing.TB, tr *trace.Trace, u parser.Unit) *parser.NodeProfile {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := trace.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	np, err := parser.Parse(rt, parser.Options{Unit: u})
	if err != nil {
		t.Fatal(err)
	}
	return np
}

// renderNode is the byte-level equivalence oracle: two profiles are "the
// same" iff the paper-format report renders identically.
func renderNode(t testing.TB, np *parser.NodeProfile) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteNode(&buf, np, report.Options{Labels: true}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// startCollector returns a collector serving a real TCP listener.
func startCollector(t testing.TB, opts Options) (*Collector, string) {
	t.Helper()
	c := New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(ln)
	t.Cleanup(func() { c.Close() })
	return c, ln.Addr().String()
}

// shipTrace streams a trace's events through a Shipper in small batches,
// exactly as a live session's drain loop would.
func shipTrace(t testing.TB, s *Shipper, tr *trace.Trace, batchLen int) {
	t.Helper()
	for i := 0; i < len(tr.Events); i += batchLen {
		end := i + batchLen
		if end > len(tr.Events) {
			end = len(tr.Events)
		}
		if err := s.Ship(tr.Events[i:end], tr.Sym); err != nil {
			t.Fatalf("Ship batch at %d: %v", i, err)
		}
	}
}

func TestShipCollectorMatchesOfflineParse(t *testing.T) {
	tr := buildTrace(t, 1, []string{"compute", "exchange", "io"}, 60)
	c, addr := startCollector(t, Options{})

	s := NewShipper(addr, tr.NodeID, tr.Rank, ShipperOptions{})
	shipTrace(t, s, tr, 7)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if st.DroppedSegments != 0 || st.AckedSegments == 0 || st.AckedSegments != st.EnqueuedSegments {
		t.Fatalf("stats: %+v", st)
	}

	np, err := c.NodeProfile(tr.NodeID)
	if err != nil {
		t.Fatal(err)
	}
	got := renderNode(t, np)
	want := renderNode(t, offlineNodeProfile(t, tr, parser.Fahrenheit))
	if got != want {
		t.Errorf("shipped profile differs from offline parse:\n--- shipped ---\n%s--- offline ---\n%s", got, want)
	}
	if c.Metrics().Segments() == 0 || c.Metrics().Events() == 0 || c.Metrics().Bytes() == 0 {
		t.Errorf("metrics not counting: segments=%d events=%d bytes=%d",
			c.Metrics().Segments(), c.Metrics().Events(), c.Metrics().Bytes())
	}
}

func TestBulkUploadMatchesOfflineParse(t *testing.T) {
	tr := buildTrace(t, 4, []string{"solve", "halo"}, 40)
	var raw bytes.Buffer
	if err := tr.WriteSegmented(&raw, 16); err != nil {
		t.Fatal(err)
	}
	c, addr := startCollector(t, Options{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	io.Copy(io.Discard, conn) // returns when the collector finished and closed
	conn.Close()

	np, err := c.NodeProfile(tr.NodeID)
	if err != nil {
		t.Fatal(err)
	}
	got := renderNode(t, np)
	want := renderNode(t, offlineNodeProfile(t, tr, parser.Fahrenheit))
	if got != want {
		t.Errorf("bulk-uploaded profile differs from offline parse:\n--- uploaded ---\n%s--- offline ---\n%s", got, want)
	}
}

func TestShipperFlushDeadlineReportsDrops(t *testing.T) {
	// A listener that accepts and answers the handshake but never acks:
	// Close must give up at FlushTimeout and report the loss explicitly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var resume [9]byte                 // downAck kind + next = 0
				io.ReadFull(conn, make([]byte, 8)) // swallow the 8-byte hello
				conn.Write(resume[:])              // resume = 0
				io.Copy(io.Discard, conn)          // read frames, never ack
			}(conn)
		}
	}()

	tr := buildTrace(t, 2, []string{"f"}, 10)
	s := NewShipper(ln.Addr().String(), tr.NodeID, tr.Rank, ShipperOptions{
		FlushTimeout: 50 * time.Millisecond,
	})
	shipTrace(t, s, tr, 5)
	start := time.Now()
	err = s.Close()
	if err == nil {
		t.Fatal("Close reported clean delivery with no acks ever received")
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Close error = %v, want ErrQueueFull wrap", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close blocked %v, deadline not applied", elapsed)
	}
	st := s.Stats()
	if st.DroppedSegments != st.EnqueuedSegments || st.DroppedSegments == 0 {
		t.Fatalf("drop accounting: %+v", st)
	}
	if _, serr := fmt.Sscanf(err.Error(), ""); serr != nil && !strings.Contains(err.Error(), "undelivered") {
		t.Errorf("error does not mention undelivered segments: %v", err)
	}
}

func TestShipperQueueFullDropsAndAccounts(t *testing.T) {
	// No collector at all: the dial fails forever, the bounded queue
	// fills, and further batches are dropped with explicit accounting.
	dialErr := errors.New("down")
	s := NewShipper("127.0.0.1:1", 9, 0, ShipperOptions{
		QueueLen:     2,
		FlushTimeout: 20 * time.Millisecond,
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			return nil, dialErr
		},
		Sleep: func(time.Duration) {},
	})
	tr := buildTrace(t, 9, []string{"g"}, 20)
	var full int
	for i := 0; i < len(tr.Events); i += 4 {
		err := s.Ship(tr.Events[i:i+4], tr.Sym)
		if errors.Is(err, ErrQueueFull) {
			full++
		} else if err != nil {
			t.Fatalf("Ship: %v", err)
		}
	}
	if full == 0 {
		t.Fatal("bounded queue never reported full")
	}
	err := s.Close()
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Close = %v, want ErrQueueFull wrap", err)
	}
	st := s.Stats()
	// Every batch was lost: rejected by the full queue, or accepted and
	// then abandoned by the flush deadline (those count as both enqueued
	// and dropped — accepted is not delivered).
	if st.DroppedSegments != uint64(len(tr.Events)/4) || st.AckedSegments != 0 {
		t.Fatalf("drop accounting: %+v", st)
	}
	if st.DroppedEvents != uint64(len(tr.Events)) {
		t.Fatalf("dropped events = %d, want %d", st.DroppedEvents, len(tr.Events))
	}
	// Shipping after Close is an explicit error, still accounted.
	if err := s.Ship(tr.Events[:1], tr.Sym); !errors.Is(err, ErrShipperClosed) {
		t.Fatalf("Ship after Close = %v", err)
	}
}

// rawShipClient speaks the wire protocol by hand for deterministic
// server-side tests.
type rawShipClient struct {
	t    *testing.T
	conn net.Conn
}

func dialShip(t *testing.T, addr string, node, rank uint32) *rawShipClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeHello(conn, hello{NodeID: node, Rank: rank}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readDown(conn, nil); err != nil {
		t.Fatal(err)
	}
	return &rawShipClient{t: t, conn: conn}
}

func (rc *rawShipClient) send(seq uint64, payload []byte) uint64 {
	rc.t.Helper()
	if err := writeFrame(rc.conn, seq, frameData, payload); err != nil {
		rc.t.Fatal(err)
	}
	for {
		df, _, err := readDown(rc.conn, nil)
		if err != nil {
			rc.t.Fatal(err)
		}
		if df.kind == downAck {
			return df.next
		}
	}
}

func TestDuplicateFrameDedupedExactlyOnce(t *testing.T) {
	tr := buildTrace(t, 3, []string{"dup"}, 8)
	payload, _, err := encodeChunk(tr.Events, tr.Sym, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, addr := startCollector(t, Options{})
	rc := dialShip(t, addr, tr.NodeID, tr.Rank)
	if ack := rc.send(0, payload); ack != 1 {
		t.Fatalf("first ack = %d", ack)
	}
	if ack := rc.send(0, payload); ack != 1 {
		t.Fatalf("duplicate ack = %d, want re-ack of 1", ack)
	}
	if got := c.Metrics().DedupDrops(); got != 1 {
		t.Fatalf("dedupDrops = %d, want 1", got)
	}
	np, err := c.NodeProfile(tr.NodeID)
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate must not have doubled anything: byte-identical to the
	// offline parse of the same events.
	if got, want := renderNode(t, np), renderNode(t, offlineNodeProfile(t, tr, parser.Fahrenheit)); got != want {
		t.Errorf("profile after duplicate differs from offline parse")
	}
}

func TestSequenceGapPoisonsNodeButKeepsAcking(t *testing.T) {
	tr := buildTrace(t, 5, []string{"gap"}, 8)
	payload, _, err := encodeChunk(tr.Events, tr.Sym, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, addr := startCollector(t, Options{})
	rc := dialShip(t, addr, tr.NodeID, tr.Rank)
	rc.send(0, payload)
	// Skip ahead: the collector can't have chunks 1..4, so the node is
	// poisoned — but the ack must still advance so the client stops.
	if ack := rc.send(5, payload); ack != 6 {
		t.Fatalf("post-gap ack = %d, want 6", ack)
	}
	nodes := c.Nodes()
	if len(nodes) != 1 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	if nodes[0].Err == "" || !strings.Contains(nodes[0].Err, "gap") {
		t.Fatalf("node not marked poisoned: %+v", nodes[0])
	}
	if c.Metrics().IngestErrors() == 0 {
		t.Error("gap not counted as ingest error")
	}
}

func TestCollectorShardingSpreadsNodes(t *testing.T) {
	c, _ := startCollector(t, Options{Shards: 4})
	hit := map[int]bool{}
	for node := uint32(0); node < 64; node++ {
		for i, sh := range c.shards {
			if sh == c.shardFor(node) {
				hit[i] = true
			}
		}
	}
	if len(hit) != 4 {
		t.Errorf("64 node ids landed on %d of 4 shards", len(hit))
	}
}

func TestCollectorClosedRejectsQueries(t *testing.T) {
	c := New(Options{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := c.IngestTrace(buildTrace(t, 1, []string{"x"}, 2)); err == nil {
		t.Fatal("IngestTrace after Close succeeded")
	}
	if n := c.Nodes(); len(n) != 0 {
		t.Fatalf("Nodes after Close = %v", n)
	}
	// Fleet-wide queries give their empty answer, everything that names a
	// node or a range says why it cannot.
	if p := c.Profile(); len(p.Nodes) != 0 {
		t.Fatalf("Profile after Close = %d nodes", len(p.Nodes))
	}
	if ps := c.PolicyStatuses(); len(ps) != 0 {
		t.Fatalf("PolicyStatuses after Close = %v", ps)
	}
	if h, err := c.Hotspots(0, 10); err != nil || len(h.Functions)+len(h.Merged)+len(h.Nodes) != 0 {
		t.Fatalf("Hotspots after Close = %+v, %v", h, err)
	}
	closed := map[string]error{}
	_, closed["NodeProfile"] = c.NodeProfile(1)
	_, _, _, closed["CritPath"] = c.CritPath(1)
	_, closed["WindowHotspots"] = c.WindowHotspots(0, 10, 0, math.MaxInt64)
	_, _, _, closed["WindowSeries"] = c.WindowSeries(1, 0, math.MaxInt64)
	_, closed["NodeWindows"] = c.NodeWindows(1)
	closed["IngestTrace"] = c.IngestTrace(buildTrace(t, 1, []string{"x"}, 2))
	for method, err := range closed {
		if !errors.Is(err, errCollectorClosed) {
			t.Errorf("%s after Close: err = %v, want errCollectorClosed", method, err)
		}
	}
}

func TestIngestTraceMatchesShipPath(t *testing.T) {
	tr := buildTrace(t, 8, []string{"a", "b"}, 30)
	c := New(Options{})
	defer c.Close()
	if err := c.IngestTrace(tr); err != nil {
		t.Fatal(err)
	}
	np, err := c.NodeProfile(tr.NodeID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderNode(t, np), renderNode(t, offlineNodeProfile(t, tr, parser.Fahrenheit)); got != want {
		t.Errorf("IngestTrace profile differs from offline parse:\n%s\nvs\n%s", got, want)
	}
}

func TestChunkRoundTripIncrementalSymbols(t *testing.T) {
	// Two chunks, the second introducing a new symbol: decode must
	// continue the cumulative table densely and reject regressions.
	clk := vclock.NewVirtualClock()
	tr, err := trace.NewTracer(trace.Config{Clock: clk, NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	lane := tr.NewLane()
	f1 := tr.RegisterFunc("first")
	clk.Advance(time.Millisecond)
	lane.Enter(f1)
	clk.Advance(time.Millisecond)
	lane.Exit(f1)
	ev1, sym := tr.Drain()
	ev1 = append([]trace.Event(nil), ev1...)
	p1, n1, err := encodeChunk(ev1, sym, 0)
	if err != nil {
		t.Fatal(err)
	}

	f2 := tr.RegisterFunc("second")
	clk.Advance(time.Millisecond)
	lane.Enter(f2)
	clk.Advance(time.Millisecond)
	lane.Exit(f2)
	ev2, sym2 := tr.Drain()
	p2, _, err := encodeChunk(ev2, sym2, n1)
	if err != nil {
		t.Fatal(err)
	}

	dst := trace.NewSymTab()
	got1, err := decodeChunk(p1, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got1) != len(ev1) || got1[0].TS != ev1[0].TS {
		t.Fatalf("chunk1 decode: %+v vs %+v", got1, ev1)
	}
	got2, err := decodeChunk(p2, dst, got1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(ev2) || got2[0].TS != ev2[0].TS || got2[0].FuncID != f2 {
		t.Fatalf("chunk2 decode: %+v vs %+v", got2, ev2)
	}
	if want := []string{"first", "second"}; !equalStrings(dst.Names(), want) {
		t.Fatalf("symbols = %v, want %v", dst.Names(), want)
	}
	// Replaying chunk2 against the same table must fail loudly: its
	// symbols would re-register at new ids and mis-attribute every event.
	if _, err := decodeChunk(p2, dst, nil); err == nil {
		t.Fatal("replayed chunk with stale symbol cursor decoded cleanly")
	}
}

func TestFrameChecksumRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, 1, frameData, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF
	if _, _, _, _, err := readFrame(bytes.NewReader(raw), nil); err == nil {
		t.Fatal("corrupt frame accepted")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
