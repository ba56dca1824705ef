package collect

import (
	"testing"

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
