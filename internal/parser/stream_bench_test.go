package parser_test

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"tempest/internal/parser"
	"tempest/internal/trace"
	"tempest/internal/tracegen"
)

// bigTraceEvents is the large-trace size: ≥1M events, per the streaming
// pipeline's acceptance bar.
const bigTraceEvents = 1 << 20

var (
	bigOnce sync.Once
	bigRaw  []byte // bigTraceEvents events, v2 segmented
)

// bigTraceBytes serializes one hot loop of back-to-back calls — the
// workload where streaming wins hardest: every exit touches the next
// enter, so the online merge keeps O(1) interval state per function
// while the batch path holds all bigTraceEvents events in memory.
func bigTraceBytes(tb testing.TB) []byte {
	tb.Helper()
	bigOnce.Do(func() {
		sym := trace.NewSymTab()
		hot := sym.Register("hot_loop")
		setup := sym.Register("setup")
		const step = 100 * time.Microsecond
		ev := make([]trace.Event, 0, bigTraceEvents+bigTraceEvents/2048+4)
		ts := time.Duration(0)
		ev = append(ev,
			trace.Event{TS: ts, Kind: trace.KindEnter, FuncID: setup},
			trace.Event{TS: ts + step, Kind: trace.KindExit, FuncID: setup},
		)
		ts += step
		for len(ev) < bigTraceEvents {
			ev = append(ev, trace.Event{TS: ts, Kind: trace.KindEnter, FuncID: hot})
			ts += step
			ev = append(ev, trace.Event{TS: ts, Kind: trace.KindExit, FuncID: hot})
			if len(ev)%2048 == 0 {
				ev = append(ev, trace.Event{
					TS: ts, Kind: trace.KindSample, SensorID: 0,
					ValueC: 40 + float64(len(ev)%4096)/1024,
				})
			}
		}
		tr := &trace.Trace{NodeID: 1, Events: ev, Sym: sym}
		var buf bytes.Buffer
		if err := tr.WriteSegmented(&buf, 8192); err != nil {
			panic(err)
		}
		bigRaw = buf.Bytes()
	})
	return bigRaw
}

var benchSink *parser.NodeProfile

// BenchmarkPipelineBatch is the old shape: materialize the whole trace
// (ReadTrace), then Parse. B/op grows linearly with trace length.
func BenchmarkPipelineBatch(b *testing.B) {
	raw := bigTraceBytes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := trace.ReadTrace(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		np, err := parser.Parse(tr, parser.Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = np
	}
}

// BenchmarkPipelineStream is the refactored shape: Scanner batches feed
// the online Builder; peak allocation is one segment plus the profile,
// independent of trace length.
func BenchmarkPipelineStream(b *testing.B) {
	raw := bigTraceBytes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := trace.NewScanner(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		bd := parser.NewBuilder(sc.NodeID(), sc.Sym(), parser.Options{})
		for {
			batch, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if err := bd.Add(batch); err != nil {
				b.Fatal(err)
			}
		}
		bd.SetTruncated(sc.Truncated())
		np, err := bd.Finish()
		if err != nil {
			b.Fatal(err)
		}
		benchSink = np
	}
}

var (
	nodeOnce   sync.Once
	nodeTraces []*trace.Trace
)

// multiNodeTraces builds 4 in-memory node traces for the ParseAll
// speedup benchmark.
func multiNodeTraces(tb testing.TB) []*trace.Trace {
	tb.Helper()
	nodeOnce.Do(func() {
		const perNode = 1 << 18
		const step = 100 * time.Microsecond
		for n := 0; n < 4; n++ {
			sym := trace.NewSymTab()
			// Distinct symbol mixes per node keep the parses honest.
			fids := []uint32{
				sym.Register("compute"), sym.Register("exchange"), sym.Register("reduce"),
			}
			ev := make([]trace.Event, 0, perNode+perNode/1024)
			ts := time.Duration(0)
			for len(ev) < perNode {
				fid := fids[(len(ev)/2)%len(fids)]
				ev = append(ev, trace.Event{TS: ts, Kind: trace.KindEnter, FuncID: fid})
				ts += step
				ev = append(ev, trace.Event{TS: ts, Kind: trace.KindExit, FuncID: fid})
				if len(ev)%1024 == 0 {
					ev = append(ev, trace.Event{
						TS: ts, Kind: trace.KindSample, SensorID: 0,
						ValueC: 35 + float64(n) + float64(len(ev)%2048)/512,
					})
				}
			}
			nodeTraces = append(nodeTraces, &trace.Trace{NodeID: uint32(n), Events: ev, Sym: sym})
		}
	})
	return nodeTraces
}

var benchProfileSink *parser.Profile

// BenchmarkParseAllSequential parses 4 node traces one after another —
// the pre-refactor ParseAll.
func BenchmarkParseAllSequential(b *testing.B) {
	traces := multiNodeTraces(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &parser.Profile{Nodes: make([]parser.NodeProfile, len(traces))}
		for j, tr := range traces {
			np, err := parser.Parse(tr, parser.Options{})
			if err != nil {
				b.Fatal(err)
			}
			p.Nodes[j] = *np
		}
		benchProfileSink = p
	}
}

// BenchmarkParseAllParallel fans the same 4 traces across the worker
// pool; the speedup over Sequential is the multi-node win.
func BenchmarkParseAllParallel(b *testing.B) {
	traces := multiNodeTraces(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := parser.ParseAll(traces, parser.Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchProfileSink = p
	}
}

// BenchmarkBuilderAddInterleaved folds the fleet shape — 4 lanes merged by
// timestamp, Zipf function popularity, a quarter of siblings back to back
// (tracegen) — in shipped-chunk-sized batches. Unlike the Pipeline
// benchmarks' single hot loop, whose intervals all merge into one, this
// grows per-function interval lists to 10⁵ spans, which is where
// InsertInterval's tail path and the FuncID-indexed tables earn their keep.
func BenchmarkBuilderAddInterleaved(b *testing.B) {
	const n, chunk = 2 << 20, 4096
	g := tracegen.New(tracegen.Config{Seed: 1})
	evs := g.Fill(make([]trace.Event, 0, n), n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := parser.NewBuilder(1, g.Sym(), parser.Options{})
		for at := 0; at < n; at += chunk {
			if err := bd.Add(evs[at : at+chunk]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
}

// BenchmarkBuilderFold feeds the fleet shape to a builder that folds
// after every batch and to one nobody folds. B/event is what is still
// allocated when the stream ends — the span lists, for the unfolded one.
//
//   - 1M: 1 M events in shipped-chunk-sized batches, what a collector
//     node sees; folding must cost no more per event than it saves in
//     span-list growth.
//   - 10k-syms/16: tiny drains against a 10⁴-entry symbol table, where
//     the cost of a Fold itself shows; it must follow the functions that
//     hold spans, not the table.
func BenchmarkBuilderFold(b *testing.B) {
	g := tracegen.New(tracegen.Config{Seed: 1})
	evs := g.Fill(nil, 1<<20)
	// The same stream with its 128 functions at the end of a 10⁴-entry table.
	wide := trace.NewSymTab()
	for i := 0; wide.Len() < 10_000-g.Sym().Len(); i++ {
		wide.Register(fmt.Sprintf("cold.fn%04d", i))
	}
	shift := uint32(wide.Len())
	for _, name := range g.Sym().Names() {
		wide.Register(name)
	}
	wideEvs := append([]trace.Event(nil), evs[:1<<17]...)
	for i := range wideEvs {
		wideEvs[i].FuncID += shift
	}
	for _, c := range []struct {
		name  string
		sym   *trace.SymTab
		evs   []trace.Event
		chunk int
	}{{"1M", g.Sym(), evs, 4096}, {"10k-syms/16", wide, wideEvs, 16}} {
		for _, fold := range []bool{false, true} {
			name := c.name + "/unfolded"
			if fold {
				name = c.name + "/folded"
			}
			b.Run(name, func(b *testing.B) {
				var held uint64
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					var before, after runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&before)
					b.StartTimer()
					bd := parser.NewBuilder(1, c.sym, parser.Options{})
					for at := 0; at < len(c.evs); at += c.chunk {
						if err := bd.Add(c.evs[at:min(at+c.chunk, len(c.evs))]); err != nil {
							b.Fatal(err)
						}
						if fold {
							bd.Fold()
						}
					}
					b.StopTimer()
					runtime.GC()
					runtime.ReadMemStats(&after)
					held += after.HeapAlloc - min(before.HeapAlloc, after.HeapAlloc)
					runtime.KeepAlive(bd)
				}
				n := float64(b.N) * float64(len(c.evs))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
				b.ReportMetric(float64(held)/n, "B/event")
			})
		}
	}
}
