package collect

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"tempest/instrument"
)

// fakeClock is an injectable Options.Now for deterministic policy rounds.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func TestControlRoundTrip(t *testing.T) {
	d := instrument.Directive{
		Default: instrument.ModeCoarse,
		Funcs: []instrument.FuncMode{
			{Name: "pkg.Hot", Mode: instrument.ModeDetail},
			{Name: "pkg.Muted", Mode: instrument.ModeOff},
		},
	}
	got, err := decodeControl(encodeControl(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d)
	}
	// The empty desired set must round-trip too (a directive that demotes
	// everything back to the default).
	empty := instrument.Directive{Default: instrument.ModeDetail}
	got, err = decodeControl(encodeControl(empty))
	if err != nil {
		t.Fatal(err)
	}
	if got.Default != instrument.ModeDetail || len(got.Funcs) != 0 {
		t.Fatalf("empty round trip mismatch: %+v", got)
	}
}

func TestControlDecodeRejectsMalformed(t *testing.T) {
	good := encodeControl(instrument.Directive{
		Default: instrument.ModeCoarse,
		Funcs:   []instrument.FuncMode{{Name: "f", Mode: instrument.ModeDetail}},
	})
	if _, err := decodeControl(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := decodeControl(good[:len(good)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = byte(instrument.ModeOff) + 1 // default mode out of range
	if _, err := decodeControl(bad); err == nil {
		t.Fatal("out-of-range default mode accepted")
	}
}

func TestCoarseRoundTrip(t *testing.T) {
	stats := []instrument.CoarseStat{
		{Name: "pkg.A", Calls: 12, Nanos: 34_000_000},
		{Name: "pkg.B", Calls: 1, Nanos: 0},
	}
	got, err := decodeCoarse(encodeCoarse(stats))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, stats) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, stats)
	}
	if _, err := decodeCoarse(append(encodeCoarse(stats), 0xff)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestReadDownAckAndCorruptControl(t *testing.T) {
	var buf bytes.Buffer
	if err := writeAck(&buf, 42); err != nil {
		t.Fatal(err)
	}
	df, _, err := readDown(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if df.kind != downAck || df.next != 42 {
		t.Fatalf("ack round trip: %+v", df)
	}

	payload := encodeControl(instrument.Directive{Default: instrument.ModeCoarse})
	buf.Reset()
	if err := writeControl(&buf, 3, payload); err != nil {
		t.Fatal(err)
	}
	df, _, err = readDown(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if df.kind != downCtl || df.rev != 3 || df.ctl.Rev != 3 {
		t.Fatalf("control round trip: %+v", df)
	}

	// A corrupt control frame must be an error, not a guess: the shipper
	// drops the connection and the collector re-issues on reconnect.
	buf.Reset()
	writeControl(&buf, 4, payload)
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0x80 // flip a payload bit; stored crc no longer matches
	if _, _, err := readDown(bytes.NewReader(raw), nil); err == nil {
		t.Fatal("corrupt control frame accepted")
	}

	if _, _, err := readDown(bytes.NewReader([]byte{0x7f}), nil); err == nil {
		t.Fatal("unknown downstream kind accepted")
	}
}

// drive sends one coarse report through the node's shard at the next
// sequence number and returns any piggybacked directive.
type policyDriver struct {
	t    *testing.T
	sh   *shard
	node uint32
	seq  uint64
}

func (pd *policyDriver) coarse(stats []instrument.CoarseStat) *ctlFrame {
	pd.t.Helper()
	resp := pd.sh.frame(pd.node, 0, pd.seq, frameCoarse, encodeCoarse(stats))
	if resp.err != nil {
		pd.t.Fatalf("opCoarse seq %d: %v", pd.seq, resp.err)
	}
	pd.seq++
	return resp.ctl
}

func TestPolicyNominatesTopKAndConverges(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{Shards: 1, Now: clk.Now, Policy: PolicyOptions{
		Enabled: true, TopK: 1, Interval: 100 * time.Millisecond, HysteresisRounds: 2,
	}})
	defer c.Close()
	const node = 7
	sh := c.shardFor(node)
	if resp := sh.resume(node, 0); resp.ctl != nil {
		t.Fatal("directive re-issued before any policy exists")
	}
	pd := &policyDriver{t: t, sh: sh, node: node}

	hot := []instrument.CoarseStat{{Name: "hot", Calls: 10, Nanos: int64(500 * time.Millisecond)}}
	cold := []instrument.CoarseStat{{Name: "cold", Calls: 10, Nanos: int64(2 * time.Second)}}

	// First sighting only starts the round clock — scoring needs one full
	// interval of accumulation.
	if ctl := pd.coarse(hot); ctl != nil {
		t.Fatalf("directive on first sighting: rev %d", ctl.rev)
	}
	clk.Advance(150 * time.Millisecond)
	ctl := pd.coarse(hot)
	if ctl == nil {
		t.Fatal("no directive after a full round of hot time")
	}
	if ctl.rev != 1 {
		t.Fatalf("first directive rev = %d, want 1", ctl.rev)
	}
	d, err := decodeControl(ctl.payload)
	if err != nil {
		t.Fatal(err)
	}
	if d.Default != instrument.ModeCoarse {
		t.Fatalf("directive default = %v, want coarse", d.Default)
	}
	if len(d.Funcs) != 1 || d.Funcs[0].Name != "hot" || d.Funcs[0].Mode != instrument.ModeDetail {
		t.Fatalf("round 1 detail set = %+v, want [hot detail]", d.Funcs)
	}

	// The workload shifts: cold now dominates. Promotion is immediate, so
	// round 2 carries both (hot rides out its hysteresis window)…
	clk.Advance(150 * time.Millisecond)
	ctl = pd.coarse(cold)
	if ctl == nil || ctl.rev != 2 {
		t.Fatalf("round 2 directive = %+v, want rev 2", ctl)
	}
	d, _ = decodeControl(ctl.payload)
	if names := funcNames(d); !reflect.DeepEqual(names, []string{"cold", "hot"}) {
		t.Fatalf("round 2 detail set = %v, want [cold hot]", names)
	}

	// …and round 3 demotes hot after its second consecutive round outside
	// the top K.
	clk.Advance(150 * time.Millisecond)
	ctl = pd.coarse(cold)
	if ctl == nil || ctl.rev != 3 {
		t.Fatalf("round 3 directive = %+v, want rev 3", ctl)
	}
	d, _ = decodeControl(ctl.payload)
	if names := funcNames(d); !reflect.DeepEqual(names, []string{"cold"}) {
		t.Fatalf("round 3 detail set = %v, want [cold]", names)
	}

	// A stable workload produces no further directives: unchanged desired
	// sets never bump the revision.
	clk.Advance(150 * time.Millisecond)
	if ctl := pd.coarse(cold); ctl != nil {
		t.Fatalf("unchanged policy re-issued as rev %d", ctl.rev)
	}

	sts := c.PolicyStatuses()
	if len(sts) != 1 {
		t.Fatalf("policy statuses = %d nodes, want 1", len(sts))
	}
	st := sts[0]
	if st.NodeID != node || st.Rev != 3 || st.Rounds != 4 {
		t.Fatalf("status = %+v, want node %d rev 3 rounds 4", st, node)
	}
	if len(st.Detail) != 1 || st.Detail[0].Name != "cold" {
		t.Fatalf("status detail = %+v, want [cold]", st.Detail)
	}
	// On reconnect the handshake re-issues the latest directive.
	resp := sh.resume(node, 0)
	if resp.ctl == nil || resp.ctl.rev != 3 {
		t.Fatalf("resume re-issue = %+v, want rev 3", resp.ctl)
	}
}

func funcNames(d instrument.Directive) []string {
	names := make([]string, 0, len(d.Funcs))
	for _, f := range d.Funcs {
		names = append(names, f.Name)
	}
	return names
}

func TestPolicyEventBudgetThrottles(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{Shards: 1, Now: clk.Now, Policy: PolicyOptions{
		Enabled: true, TopK: 4, Interval: 100 * time.Millisecond, EventBudget: 10,
	}})
	defer c.Close()
	const node = 3
	sh := c.shardFor(node)
	sh.resume(node, 0)
	pd := &policyDriver{t: t, sh: sh, node: node}

	report := []instrument.CoarseStat{
		{Name: "hot1", Calls: 10, Nanos: int64(4 * time.Second)},
		{Name: "hot2", Calls: 10, Nanos: int64(3 * time.Second)},
		{Name: "hot3", Calls: 10, Nanos: int64(2 * time.Second)},
		{Name: "hot4", Calls: 10, Nanos: int64(1 * time.Second)},
	}
	pd.coarse(report) // first sighting starts the clock

	// A detail chunk with ~30 events: well over the 10-event round budget.
	tr := buildTrace(t, node, []string{"a", "b"}, 10)
	payload, _, err := encodeChunk(tr.Events, tr.Sym, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp := sh.frame(node, 0, pd.seq, frameData, payload); resp.err != nil {
		t.Fatal(resp.err)
	}
	pd.seq++

	clk.Advance(150 * time.Millisecond)
	ctl := pd.coarse(report)
	if ctl == nil {
		t.Fatal("no directive from the throttled round")
	}
	d, _ := decodeControl(ctl.payload)
	// Over budget: allowed halves from TopK 4 to 2, and the detail set is
	// cut to the two highest-scored functions.
	if names := funcNames(d); !reflect.DeepEqual(names, []string{"hot1", "hot2"}) {
		t.Fatalf("throttled detail set = %v, want [hot1 hot2]", names)
	}
	if st := c.PolicyStatuses()[0]; st.Allowed != 2 {
		t.Fatalf("allowed after throttle = %d, want 2", st.Allowed)
	}
	if got := c.metrics.policyThrottles.Value(); got != 1 {
		t.Fatalf("throttle counter = %d, want 1", got)
	}

	// A quiet round (no detail events) recovers one slot.
	clk.Advance(150 * time.Millisecond)
	pd.coarse(report)
	if st := c.PolicyStatuses()[0]; st.Allowed != 3 {
		t.Fatalf("allowed after recovery round = %d, want 3", st.Allowed)
	}
}

func TestPolicyDirectivePersistedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	opts := Options{Shards: 2, Now: clk.Now, StoreDir: dir, Policy: PolicyOptions{
		Enabled: true, TopK: 1, Interval: 100 * time.Millisecond,
	}}
	c := New(opts)
	const node = 5
	sh := c.shardFor(node)
	sh.resume(node, 0)
	pd := &policyDriver{t: t, sh: sh, node: node}
	hot := []instrument.CoarseStat{{Name: "hot", Calls: 4, Nanos: int64(time.Second)}}
	pd.coarse(hot)
	clk.Advance(150 * time.Millisecond)
	ctl := pd.coarse(hot)
	if ctl == nil || ctl.rev != 1 {
		t.Fatalf("directive = %+v, want rev 1", ctl)
	}
	wantPayload := append([]byte(nil), ctl.payload...)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The reborn collector must re-issue exactly what its predecessor
	// last told the node, from the durable store alone.
	c2 := New(opts)
	defer c2.Close()
	if n := c2.DegradedStoreShards(); n != 0 {
		t.Fatalf("%d shards degraded on reopen", n)
	}
	resp := c2.shardFor(node).resume(node, 0)
	if resp.ctl == nil {
		t.Fatal("no directive re-issued after restart")
	}
	if resp.ctl.rev != 1 || !bytes.Equal(resp.ctl.payload, wantPayload) {
		t.Fatalf("restart re-issue rev %d payload %x, want rev 1 payload %x",
			resp.ctl.rev, resp.ctl.payload, wantPayload)
	}
	// The ship cursor also survived: both coarse reports were persisted.
	if resp.resume != pd.seq {
		t.Fatalf("resume cursor after restart = %d, want %d", resp.resume, pd.seq)
	}
	sts := c2.PolicyStatuses()
	if len(sts) != 1 || len(sts[0].Detail) != 1 || sts[0].Detail[0].Name != "hot" {
		t.Fatalf("restored policy status = %+v, want detail [hot]", sts)
	}
}

// fakeShipServer accepts one shipper connection, completes the handshake
// and hands the connection to fn.
func fakeShipServer(t *testing.T, fn func(conn net.Conn, br *bufio.Reader) error) (addr string, done chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done = make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var magic [4]byte
		if _, err := io.ReadFull(br, magic[:]); err != nil {
			done <- err
			return
		}
		if _, err := readHelloTail(br); err != nil {
			done <- err
			return
		}
		if err := writeAck(conn, 0); err != nil {
			done <- err
			return
		}
		done <- fn(conn, br)
	}()
	return ln.Addr().String(), done
}

func TestShipperControlDedupedByRevision(t *testing.T) {
	d := instrument.Directive{
		Default: instrument.ModeCoarse,
		Funcs:   []instrument.FuncMode{{Name: "hot", Mode: instrument.ModeDetail}},
	}
	payload := encodeControl(d)
	addr, done := fakeShipServer(t, func(conn net.Conn, br *bufio.Reader) error {
		// One live directive, one duplicate revision, one stale revision:
		// exactly one may reach the callback.
		if err := writeControl(conn, 1, payload); err != nil {
			return err
		}
		if err := writeControl(conn, 1, payload); err != nil {
			return err
		}
		if err := writeControl(conn, 0, payload); err != nil {
			return err
		}
		seq, _, _, _, err := readFrame(br, nil)
		if err != nil {
			return err
		}
		return writeAck(conn, seq+1)
	})

	var mu sync.Mutex
	var got []instrument.Directive
	s := NewShipper(addr, 9, 0, ShipperOptions{
		FlushTimeout: 10 * time.Second,
		OnControl: func(d instrument.Directive) {
			mu.Lock()
			got = append(got, d)
			mu.Unlock()
		},
	})
	tr := buildTrace(t, 9, []string{"f"}, 4)
	if err := s.Ship(tr.Events, tr.Sym); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("fake server: %v", err)
	}
	st := s.Stats()
	if st.ControlFrames != 3 || st.ControlStale != 2 {
		t.Fatalf("control stats = %d frames / %d stale, want 3 / 2", st.ControlFrames, st.ControlStale)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("OnControl fired %d times, want 1: %+v", len(got), got)
	}
	if got[0].Rev != 1 || !reflect.DeepEqual(funcNames(got[0]), []string{"hot"}) {
		t.Fatalf("delivered directive = %+v, want rev 1 [hot]", got[0])
	}
}

func TestShipperCorruptControlRedialsWithoutLosingFrames(t *testing.T) {
	payload := encodeControl(instrument.Directive{Default: instrument.ModeCoarse})
	// First connection: handshake, then a checksum-corrupt control frame.
	// The shipper must drop the link rather than guess at stream state.
	firstAddr, firstDone := fakeShipServer(t, func(conn net.Conn, br *bufio.Reader) error {
		frame := make([]byte, downHdrLen+len(payload))
		frame[0] = downCtl
		rev := uint64(1)
		binary.LittleEndian.PutUint64(frame[1:9], rev)
		binary.LittleEndian.PutUint32(frame[9:13], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[13:17], crc32.ChecksumIEEE(payload)^0xdeadbeef)
		copy(frame[downHdrLen:], payload)
		_, err := conn.Write(frame)
		return err
	})
	_ = firstAddr

	// The redial lands on a healthy collector: the forward frame must
	// arrive exactly once and the session must drain cleanly.
	c, addr := startCollector(t, Options{})
	dialed := 0
	var dialMu sync.Mutex
	controls := 0
	s := NewShipper(addr, 12, 0, ShipperOptions{
		FlushTimeout:    10 * time.Second,
		DialBackoffBase: time.Millisecond,
		DialBackoffMax:  5 * time.Millisecond,
		OnControl:       func(instrument.Directive) { controls++ },
		Dial: func(network, target string, timeout time.Duration) (net.Conn, error) {
			dialMu.Lock()
			dialed++
			first := dialed == 1
			dialMu.Unlock()
			if first {
				return net.DialTimeout(network, firstAddr, timeout)
			}
			return net.DialTimeout(network, target, timeout)
		},
	})
	tr := buildTrace(t, 12, []string{"compute", "io"}, 30)
	shipTrace(t, s, tr, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	<-firstDone // server exits once its corrupt frame is written
	st := s.Stats()
	if st.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1 (corrupt control must redial)", st.Reconnects)
	}
	if st.DroppedSegments != 0 {
		t.Fatalf("dropped %d segments across the redial", st.DroppedSegments)
	}
	if controls != 0 {
		t.Fatalf("corrupt control frame reached the callback %d times", controls)
	}
	np, err := c.NodeProfile(12)
	if err != nil {
		t.Fatal(err)
	}
	want := renderNode(t, offlineNodeProfile(t, tr, c.opts.Unit))
	if got := renderNode(t, np); got != want {
		t.Fatalf("profile diverged after corrupt-control redial:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestPolicyStaticPriorSeeding pins the cold-start fix: with static
// priors configured, a node's very first sighting yields an immediate
// directive putting the predicted-hot set in detail mode, and real
// measurement rounds then take over from the decayed priors.
func TestPolicyStaticPriorSeeding(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{Shards: 1, Now: clk.Now, Policy: PolicyOptions{
		Enabled: true, TopK: 2, Interval: 100 * time.Millisecond, HysteresisRounds: 1,
		StaticPriors: map[string]float64{
			"predictedHot":  9.5e8,
			"predictedWarm": 3.2e8,
			"predictedCold": 1.1e5,
		},
	}})
	defer c.Close()
	const node = 3
	sh := c.shardFor(node)
	pd := &policyDriver{t: t, sh: sh, node: node}

	// First sighting: no measurements yet, but the priors produce rev 1
	// with the predicted top-2 in detail mode.
	ctl := pd.coarse(nil)
	if ctl == nil {
		t.Fatal("no directive on first sighting despite static priors")
	}
	if ctl.rev != 1 {
		t.Fatalf("seed directive rev = %d, want 1", ctl.rev)
	}
	d, err := decodeControl(ctl.payload)
	if err != nil {
		t.Fatal(err)
	}
	if names := funcNames(d); !reflect.DeepEqual(names, []string{"predictedHot", "predictedWarm"}) {
		t.Fatalf("seeded detail set = %v, want [predictedHot predictedWarm]", names)
	}

	st := c.PolicyStatuses()[0]
	if !st.Seeded {
		t.Fatalf("status not marked seeded: %+v", st)
	}

	// The workload disagrees with the prediction: one unpredicted
	// function dominates. Normalized priors (peak 1.0) decay under real
	// degree-seconds, so measurement wins within the hysteresis window.
	measured := []instrument.CoarseStat{{Name: "actualHot", Calls: 50, Nanos: int64(4 * time.Second)}}
	var last instrument.Directive
	for i := 0; i < 4; i++ {
		clk.Advance(150 * time.Millisecond)
		if ctl := pd.coarse(measured); ctl != nil {
			if last, err = decodeControl(ctl.payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	names := funcNames(last)
	if len(names) == 0 || names[0] != "actualHot" {
		t.Fatalf("measurement did not take over from priors: final detail set %v", names)
	}
	for _, n := range names {
		if n == "predictedCold" {
			t.Fatalf("low prior promoted to detail: %v", names)
		}
	}

	// A second sighting of the same node must not re-seed.
	if got := c.metrics.policySeeds.Value(); got != 1 {
		t.Fatalf("policySeeds = %d, want 1", got)
	}
}
