package collect

import (
	"encoding/hex"
	"strings"
	"testing"
	"time"

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
