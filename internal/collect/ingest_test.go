package collect

import (
	"bytes"
	"encoding/hex"
	"log/slog"
	"strings"
	"testing"
	"time"

	"tempest/instrument"
	"tempest/internal/store"
	"tempest/internal/trace"
	"tempest/internal/tracegen"
)

// TestEncodeChunkMatchesParentBytes pins the chunk encoding across the
// move to trace.AppendSymbols/AppendEvents: stores written before it must
// replay, so the bytes may not change. The golden was generated at the
// commit before the move. Two chunks: one with the whole symbol table and
// a tracegen stream, one from a symbol cursor mid-table whose events
// cover every kind, a negative delta and a negative sample.
func TestEncodeChunkMatchesParentBytes(t *testing.T) {
	g := tracegen.New(tracegen.Config{Seed: 5, Lanes: 3, SampleEvery: 2 * time.Millisecond})
	first, _, err := encodeChunk(g.Fill(nil, 600), g.Sym(), 0)
	if err != nil {
		t.Fatal(err)
	}
	second, n, err := encodeChunk([]trace.Event{
		{Kind: trace.KindMarker, FuncID: 127, TS: 9 * time.Second},
		{Kind: trace.KindEnter, Lane: 1500, FuncID: 3, TS: 9*time.Second + 40},
		{Kind: trace.KindSample, SensorID: 2, ValueC: -12.3456, TS: 8 * time.Second},
		{Kind: trace.KindDrop, Lane: 1500, Aux: 1 << 40, TS: 8*time.Second + 1},
		{Kind: trace.KindExit, Lane: 1500, FuncID: 3, TS: 10 * time.Second},
	}, g.Sym(), 120)
	if err != nil {
		t.Fatal(err)
	}
	if n != g.Sym().Len() {
		t.Fatalf("symbol cursor after the chunk = %d, want %d", n, g.Sym().Len())
	}
	checkGolden(t, "chunk_bytes", hex.EncodeToString(first)+"\n"+hex.EncodeToString(second)+"\n")

	if _, _, err := encodeChunk(nil, g.Sym(), g.Sym().Len()+1); err == nil || !strings.Contains(err.Error(), "beyond table") {
		t.Fatalf("symbol cursor beyond the table: err = %v", err)
	}
}

// TestArchiveV1IsUndecodable: archive format v1 has had no writer since
// per-granule windows arrived, and its decoder is gone. A checkpoint that
// still holds a v1 blob takes the path any undecodable archive takes: the
// collector starts, says so at error level, drops the compacted history
// and replays the raw segments.
func TestArchiveV1IsUndecodable(t *testing.T) {
	// Version 1: per node its cursors, symbols and all-time heat inline;
	// no window section.
	v1 := []byte{
		1,    // version
		1,    // nodes
		8, 0, // node id, rank
		1, 1, 100, // next seq, segments, events
		0,         // flags
		1, 1, 'f', // symbols
		1, 1, 1, 'f', // sensors, heat entries of sensor 0, the first's name
	}
	v1 = append(v1, make([]byte, 4*8)...) // its avg, max, total time, score
	if _, err := decodeArchive(v1); err == nil || !strings.Contains(err.Error(), "archive version 1") {
		t.Fatalf("decodeArchive(v1 blob): err = %v", err)
	}

	clk := newStoreClock()
	var logs bytes.Buffer
	opts := Options{
		StoreDir: t.TempDir(), Shards: 1, Now: clk.now,
		Logger: slog.New(slog.NewTextHandler(&logs, nil)),
		StoreOptions: store.Options{
			Window: time.Minute, Retention: 5 * time.Minute,
			// The checkpoint an old collector would have left behind.
			Compact: func([]byte, []store.Batch) ([]byte, error) { return v1, nil },
		},
	}
	c1 := New(opts)
	if err := c1.IngestTrace(buildTrace(t, 8, []string{"f"}, 50)); err != nil {
		t.Fatal(err)
	}
	clk.advance(10 * time.Minute) // node 8's segment ages out; node 7's will not
	if err := c1.IngestTrace(buildTrace(t, 7, []string{"g"}, 20)); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2 := New(opts) // compacts node 8's segment into the v1 blob at Open
	defer c2.Close()
	if !strings.Contains(logs.String(), "store archive undecodable") {
		t.Fatalf("no error-level report of the undecodable archive in:\n%s", logs.String())
	}
	nodes := c2.Nodes()
	if len(nodes) != 1 || nodes[0].NodeID != 7 || nodes[0].Events == 0 || nodes[0].Err != "" {
		t.Fatalf("nodes after restart = %+v, want node 7 alone, replayed from its raw segment", nodes)
	}
	if n := c2.DegradedStoreShards(); n != 0 {
		t.Fatalf("%d shards degraded: an undecodable archive must not cost durability", n)
	}
}

// TestAdmitCursorDiscipline pins the one routine that steps a node's
// ship sequence cursor, through each of its three callers: a shipped
// chunk, a coarse report and a replayed batch, each arriving below, at
// and above a cursor of 5. A duplicate re-acks and changes nothing; a
// fresh frame steps the cursor and counts a segment; a gap poisons the
// node with the caller's message, steps past the hole and counts nothing.
func TestAdmitCursorDiscipline(t *testing.T) {
	chunk, _, err := encodeChunk([]trace.Event{{Kind: trace.KindSample, ValueC: 40, TS: time.Millisecond}}, trace.NewSymTab(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coarse := encodeCoarse([]instrument.CoarseStat{{Name: "f", Calls: 1, Nanos: 1000}})
	const liveGap = "collect: node 1: sequence gap (5..7 lost to a collector restart?)"
	for _, via := range []struct {
		name    string
		gapMsg  string
		deliver func(sh *shard, seq uint64) (a ack, live bool)
	}{
		{"chunk", liveGap, func(sh *shard, seq uint64) (ack, bool) {
			return sh.frame(1, 0, seq, frameData, chunk), true
		}},
		{"coarse", liveGap, func(sh *shard, seq uint64) (ack, bool) {
			return sh.frame(1, 0, seq, frameCoarse, coarse), true
		}},
		{"replay", "collect: node 1: durable history gap (5..7 lost)", func(sh *shard, seq uint64) (ack, bool) {
			if err := sh.replayBatch(store.Batch{Node: 1, Seq: seq, Payload: chunk}); err != nil {
				t.Fatal(err)
			}
			return ack{}, false
		}},
	} {
		for _, tc := range []struct {
			name     string
			seq      uint64
			wantNext uint64
			wantDup  bool
			wantSegs uint64
			wantErr  string
		}{
			{"below", 3, 5, true, 0, ""},
			{"at", 5, 6, false, 1, ""},
			{"above", 8, 9, false, 0, via.gapMsg},
		} {
			t.Run(via.name+"/"+tc.name, func(t *testing.T) {
				c := New(Options{Shards: 1, Logger: quietLogger()})
				defer c.Close()
				sh := c.shards[0]
				ns := sh.node(1, 0)
				ns.nextSeq = 5
				a, live := via.deliver(sh, tc.seq)
				gotErr := ""
				if ns.err != nil {
					gotErr = ns.err.Error()
				}
				if ns.nextSeq != tc.wantNext || ns.segments != tc.wantSegs || gotErr != tc.wantErr {
					t.Errorf("node after seq %d: cursor %d, %d segments, err %q; want cursor %d, %d segments, err %q",
						tc.seq, ns.nextSeq, ns.segments, gotErr, tc.wantNext, tc.wantSegs, tc.wantErr)
				}
				if !live {
					return
				}
				if a.resume != tc.wantNext || a.dup != tc.wantDup || (a.err != nil) != (tc.wantErr != "") {
					t.Errorf("ack = %+v, want resume %d dup %v err %q", a, tc.wantNext, tc.wantDup, tc.wantErr)
				}
				if got := c.metrics.shardSegments[0].Value(); got != tc.wantSegs {
					t.Errorf("shard segment counter = %d, want %d", got, tc.wantSegs)
				}
			})
		}
	}
}
