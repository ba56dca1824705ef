package collect

import (
	"math"
	"testing"
	"time"

	"tempest/internal/trace"
	"tempest/internal/tracegen"
)

// BenchmarkDecodeChunk decodes fleet-shaped chunks (tracegen: 4 lanes,
// 4096 events a chunk, symbols in the first) the way a shard worker does —
// into a reused batch, against a cumulative symbol table — with the
// slice-cursor decoder and with the reader-based one it replaced.
func BenchmarkDecodeChunk(b *testing.B) {
	const chunks, perChunk = 64, 4096
	g := tracegen.New(tracegen.Config{Seed: 1})
	payloads := make([][]byte, chunks)
	cursor := 0
	var evs []trace.Event
	for i := range payloads {
		evs = g.Fill(evs[:0], perChunk)
		p, n, err := encodeChunk(evs, g.Sym(), cursor)
		if err != nil {
			b.Fatal(err)
		}
		payloads[i], cursor = p, n
	}
	for _, impl := range []struct {
		name   string
		decode func([]byte, *trace.SymTab, []trace.Event) ([]trace.Event, error)
	}{{"cursor", decodeChunk}, {"reader", refDecodeChunk}} {
		decode := impl.decode
		b.Run(impl.name, func(b *testing.B) {
			var batch []trace.Event
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sym := trace.NewSymTab()
				for _, p := range payloads {
					out, err := decode(p, sym, batch)
					if err != nil {
						b.Fatal(err)
					}
					batch = out[:0]
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(chunks*perChunk), "ns/event")
		})
	}
}

// shipFleet ships chunks fleet-shaped chunks (tracegen: 4096 events or
// about 5 ms of virtual time each) from each of nodes nodes, numbered
// from 1.
func shipFleet(tb testing.TB, c *Collector, nodes, chunks int, sampleEvery time.Duration) {
	tb.Helper()
	const perChunk = 4096
	for node := uint32(1); int(node) <= nodes; node++ {
		g := tracegen.New(tracegen.Config{Seed: int64(node), SampleEvery: sampleEvery})
		if a := shipChunks(tb, c, node, g.Sym(), 0, g.Fill(nil, chunks*perChunk), perChunk); a.err != nil {
			tb.Fatal(a.err)
		}
	}
}

var hotspotsSink *HotspotsResponse

// benchRanking ranks a two-node fleet's live state after 32 chunks a node
// and after eight times the events, sampled an eighth as often so that
// both histories hold the same eight samples a node.
func benchRanking(b *testing.B, rank func(*Collector) (*HotspotsResponse, error)) {
	for _, h := range []struct {
		name        string
		chunks      int
		sampleEvery time.Duration
	}{{"1x", 32, 20 * time.Millisecond}, {"8x", 256, 160 * time.Millisecond}} {
		b.Run(h.name, func(b *testing.B) {
			c := New(Options{Shards: 1, Logger: quietLogger()})
			defer c.Close()
			shipFleet(b, c, 2, h.chunks, h.sampleEvery)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := rank(c)
				if err != nil {
					b.Fatal(err)
				}
				hotspotsSink = resp
			}
		})
	}
}

// BenchmarkCollectorHotspots: with the builders folded the all-time
// ranking costs the same at 1x and 8x, where copying every span made it
// cost in proportion to events.
func BenchmarkCollectorHotspots(b *testing.B) {
	benchRanking(b, func(c *Collector) (*HotspotsResponse, error) { return c.Hotspots(0, 10) })
}

// BenchmarkWindowHotspots: a ranking over a window is a ranged snapshot of
// the same builders and costs what the all-time one does, where
// re-decoding the window's chunks cost in proportion to events.
func BenchmarkWindowHotspots(b *testing.B) {
	benchRanking(b, func(c *Collector) (*HotspotsResponse, error) { return c.WindowHotspots(0, 10, 0, math.MaxInt64) })
}
