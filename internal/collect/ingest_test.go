package collect

import (
	"bytes"
	"encoding/hex"
	"log/slog"
	"strings"
	"testing"
	"time"

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
