package instrument

import (
	"testing"

	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// The three costs the adaptive control plane trades between, measured
// per Trace call. `make bench-smoke` runs each once; the numbers to
// compare are the _bench grid's instrument.inert_ns, instrument.detail_ns,
// instrument.coarse_ns and instrument.off_ns cells. The inert number must
// not regress: it is every uninstrumented binary's tax.

func benchTracer(b *testing.B) *trace.Tracer {
	b.Helper()
	tr, err := trace.NewTracer(trace.Config{Clock: vclock.NewRealClock(), LaneBufferCap: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkTraceInert(b *testing.B) {
	Detach(nil)
	slots := Register("bench/inert", []string{"bench.Inert"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Trace(slots[0])()
	}
}

func BenchmarkTraceDetail(b *testing.B) {
	tr := benchTracer(b)
	slots := Register("bench/detail", []string{"bench.Detail"})
	Apply(Directive{Default: ModeDetail})
	Attach(tr)
	defer Detach(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Trace(slots[0])()
		if i%32768 == 0 {
			b.StopTimer()
			tr.Drain()
			b.StartTimer()
		}
	}
	b.StopTimer()
	FlushCoarse()
}

// BenchmarkTraceDetailParallel runs the detail path on every P at once:
// each goroutine finds its own lane, so the cost should stay near the
// serial one instead of queueing on a shared lock or counter.
func BenchmarkTraceDetailParallel(b *testing.B) {
	tr := benchTracer(b)
	slots := Register("bench/detail", []string{"bench.Detail"})
	Apply(Directive{Default: ModeDetail})
	Attach(tr)
	defer Detach(tr)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 1; pb.Next(); i++ {
			Trace(slots[0])()
			if i%32768 == 0 {
				tr.Drain() // timed: any goroutine's drain locks every lane
			}
		}
	})
	b.StopTimer()
	FlushCoarse()
}

func BenchmarkTraceCoarse(b *testing.B) {
	tr := benchTracer(b)
	slots := Register("bench/coarse", []string{"bench.Coarse"})
	Apply(Directive{Default: ModeCoarse})
	Attach(tr)
	defer func() {
		Detach(tr)
		Apply(Directive{Default: ModeDetail})
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Trace(slots[0])()
	}
	b.StopTimer()
	FlushCoarse()
}

func BenchmarkTraceOff(b *testing.B) {
	tr := benchTracer(b)
	slots := Register("bench/off", []string{"bench.Off"})
	Apply(Directive{Default: ModeOff})
	Attach(tr)
	defer func() {
		Detach(tr)
		Apply(Directive{Default: ModeDetail})
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Trace(slots[0])()
	}
}
