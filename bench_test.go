// bench_test.go regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index E1–E10 and
// EXPERIMENTS.md for recorded paper-vs-measured outcomes). Each benchmark
// runs one experiment per iteration and reports its headline numbers as
// custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the reproduction alongside the timing. Shape violations (wrong
// winner, missing phase structure) fail the benchmark.
package tempest

import (
	"math"
	"sync"
	"testing"
	"time"

	"tempest/internal/cluster"
	"tempest/internal/gprof"
	"tempest/internal/hotspot"
	"tempest/internal/micro"
	"tempest/internal/nas"
	"tempest/internal/parser"
	"tempest/internal/sensors"
	"tempest/internal/tempd"
	"tempest/internal/thermal"
	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// --- E1: Table 1 — micro-benchmarks A–E --------------------------------

func BenchmarkTable1_MicroBenchmarks(b *testing.B) {
	short := micro.Durations{Burn: 5 * time.Second, Timer: 2 * time.Second, Unit: time.Second}
	var events int
	for i := 0; i < b.N; i++ {
		events = 0
		for _, bench := range micro.All(short) {
			res, err := micro.RunOnNode(bench, 1)
			if err != nil {
				b.Fatalf("%s: %v", bench.ID, err)
			}
			np, err := parser.Parse(res.Traces[0], parser.Options{})
			if err != nil {
				b.Fatalf("%s: parse: %v", bench.ID, err)
			}
			// Correctness: every benchmark yields a clean profile whose
			// intervals nest within the run (Table 1's purpose).
			for _, f := range np.Functions {
				for _, iv := range f.Intervals {
					if iv.Start < 0 || iv.End > np.Duration {
						b.Fatalf("%s/%s: interval escapes run", bench.ID, f.Name)
					}
				}
			}
			events += len(res.Traces[0].Events)
		}
	}
	b.ReportMetric(float64(events), "trace_events")
	b.ReportMetric(5, "benchmarks_ok")
}

// --- E2/E3: Figure 2 — micro-benchmark D -------------------------------

func runMicroD(b *testing.B) *parser.NodeProfile {
	b.Helper()
	res, err := micro.RunOnNode(micro.D(micro.Durations{}), 1) // paper scale: 60 s burn
	if err != nil {
		b.Fatal(err)
	}
	np, err := parser.Parse(res.Traces[0], parser.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return np
}

func BenchmarkFigure2a_MicroDStdout(b *testing.B) {
	var foo1Max, foo1Avg float64
	var foo2Significant bool
	for i := 0; i < b.N; i++ {
		np := runMicroD(b)
		foo1, ok := np.Function("foo1")
		if !ok {
			b.Fatal("foo1 missing")
		}
		foo1Max, foo1Avg = foo1.Sensors[0].Max, foo1.Sensors[0].Avg
		foo2, _ := np.Function("foo2")
		foo2Significant = foo2.Significant
		// Paper Figure 2a: foo1 maxes ≈124 °F; foo2's thermal data is
		// not significant.
		if foo1Max < 115 || foo1Max > 132 {
			b.Fatalf("foo1 max = %.1f °F, paper ≈124", foo1Max)
		}
	}
	b.ReportMetric(foo1Max, "foo1_max_F")
	b.ReportMetric(foo1Avg, "foo1_avg_F")
	if foo2Significant {
		b.Fatal("foo2 should be below the significance threshold")
	}
}

func BenchmarkFigure2b_MicroDProfile(b *testing.B) {
	var rise, drop float64
	for i := 0; i < b.N; i++ {
		np := runMicroD(b)
		ts, vs, err := np.Series(0)
		if err != nil {
			b.Fatal(err)
		}
		foo1, _ := np.Function("foo1")
		end := foo1.Intervals[len(foo1.Intervals)-1].End
		var first, atEnd, last float64
		for k := range ts {
			if k == 0 {
				first = vs[k]
			}
			if ts[k] <= end {
				atEnd = vs[k]
			}
			last = vs[k]
		}
		rise = atEnd - first
		drop = atEnd - last
		// Figure 2b: steady heating during foo1, abrupt drop during foo2.
		if rise < 20 {
			b.Fatalf("rise during foo1 = %.1f °F, want ≥20", rise)
		}
		if drop <= 2 {
			b.Fatalf("drop during foo2 = %.1f °F, want >2", drop)
		}
	}
	b.ReportMetric(rise, "foo1_rise_F")
	b.ReportMetric(drop, "foo2_drop_F")
}

// --- E4: §3.4 — instrumentation overhead vs gprof -----------------------

// overheadWork is a unit of real computation sized so that per-call
// instrumentation overhead lands in the low single digits of percent,
// like the paper's compiled codes.
func overheadWork() float64 {
	s := 0.0
	for i := 0; i < 2000; i++ {
		s += math.Sqrt(float64(i))
	}
	return s
}

var overheadSink float64

// measureOverhead compares instrumented against plain execution. Each
// side is timed several times and the minimum kept: the minimum is the
// run least disturbed by scheduler noise, which on a shared 1-vCPU box
// otherwise dominates a few-percent effect.
func measureOverhead(b *testing.B, calls int, instrumented func(fn func())) (base, inst time.Duration) {
	b.Helper()
	const repeats = 5
	base, inst = time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			overheadSink = overheadWork()
		}
		if d := time.Since(start); d < base {
			base = d
		}
		start = time.Now()
		for i := 0; i < calls; i++ {
			instrumented(func() { overheadSink = overheadWork() })
		}
		if d := time.Since(start); d < inst {
			inst = d
		}
	}
	return base, inst
}

func BenchmarkSec34_OverheadTempest(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		tr, err := trace.NewTracer(trace.Config{Clock: vclock.NewRealClock(), LaneBufferCap: 1 << 22})
		if err != nil {
			b.Fatal(err)
		}
		lane := tr.NewLane()
		fid := tr.RegisterFunc("work")
		base, inst := measureOverhead(b, 5000, func(fn func()) {
			lane.Enter(fid)
			fn()
			_ = lane.Exit(fid)
		})
		pct = (inst.Seconds() - base.Seconds()) / base.Seconds() * 100
	}
	b.ReportMetric(pct, "overhead_pct")
	// Paper: Tempest adds <7 %. Virtualised CI boxes are noisy; enforce a
	// loose 2× envelope.
	if pct > 14 {
		b.Fatalf("Tempest overhead %.1f%%, paper <7%%", pct)
	}
}

func BenchmarkSec34_OverheadGprof(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		p := gprof.New()
		base, inst := measureOverhead(b, 5000, func(fn func()) {
			p.Enter(0, "work")
			fn()
			_ = p.Exit(0, "work")
		})
		pct = (inst.Seconds() - base.Seconds()) / base.Seconds() * 100
	}
	b.ReportMetric(pct, "overhead_pct")
	if pct > 20 {
		b.Fatalf("gprof overhead %.1f%%, paper <10%%", pct)
	}
}

func BenchmarkSec34_TimeAgreement(b *testing.B) {
	// Tempest's per-function times agree with the gprof baseline computed
	// from the same run (the paper's "similar results for total execution
	// time ... within the variance mentioned").
	var maxRel float64
	for i := 0; i < b.N; i++ {
		clk := vclock.NewVirtualClock()
		tr, _ := trace.NewTracer(trace.Config{Clock: clk})
		lane := tr.NewLane()
		fa := tr.RegisterFunc("alpha")
		fb := tr.RegisterFunc("beta")
		for k := 0; k < 50; k++ {
			lane.Enter(fa)
			clk.Advance(7 * time.Millisecond)
			_ = lane.Exit(fa)
			lane.Enter(fb)
			clk.Advance(3 * time.Millisecond)
			_ = lane.Exit(fb)
		}
		trc := tr.Finish()
		flat, err := gprof.FromTrace(trc)
		if err != nil {
			b.Fatal(err)
		}
		np, err := parser.Parse(trc, parser.Options{})
		if err != nil {
			b.Fatal(err)
		}
		maxRel = 0
		for _, e := range flat {
			fp, ok := np.Function(e.Name)
			if !ok {
				b.Fatalf("%s missing from Tempest profile", e.Name)
			}
			rel := math.Abs(fp.TotalTime.Seconds()-e.Cumulative.Seconds()) / e.Cumulative.Seconds()
			if rel > maxRel {
				maxRel = rel
			}
		}
		if maxRel > 0.05 { // the paper's ~5 % variance bound
			b.Fatalf("tools disagree by %.1f%%", maxRel*100)
		}
	}
	b.ReportMetric(maxRel*100, "max_disagreement_pct")
}

// --- E5: §3.2 — sensor validation against an external probe -------------

func BenchmarkSec32_SensorValidation(b *testing.B) {
	var maxDiff float64
	for i := 0; i < b.N; i++ {
		p := thermal.DefaultOpteronParams()
		p.NoiseAmpC = 0
		cpu, err := thermal.NewCPU(p)
		if err != nil {
			b.Fatal(err)
		}
		var mu sync.Mutex
		sim := sensors.NewSimProvider(cpu, &mu, "n")
		ss, err := sim.Sensors()
		if err != nil {
			b.Fatal(err)
		}
		var virt time.Duration
		ext := &sensors.ExternalSensor{
			CPU: cpu, Mu: &mu, LagS: 0.5, NoiseC: 0.05, Seed: 9,
			ClockNow: func() time.Duration { return virt },
		}
		if _, err := ext.ReadC(); err != nil {
			b.Fatal(err)
		}
		mu.Lock()
		_ = cpu.SetCoreUtilization(0, 1)
		mu.Unlock()
		maxDiff = 0
		for k := 0; k < 240; k++ { // a 60 s burn at 4 Hz
			mu.Lock()
			_ = cpu.Step(250 * time.Millisecond)
			mu.Unlock()
			virt += 250 * time.Millisecond
			a, err1 := ss[0].ReadC()
			c, err2 := ext.ReadC()
			if err1 != nil || err2 != nil {
				b.Fatal(err1, err2)
			}
			if d := math.Abs(a - c); d > maxDiff {
				maxDiff = d
			}
		}
		// Mercury validates within 1 °C; our quantised chip vs probe must
		// stay within quantisation + lag error.
		if maxDiff > 1.5 {
			b.Fatalf("sensor vs probe deviation %.2f °C", maxDiff)
		}
	}
	b.ReportMetric(maxDiff, "max_deviation_C")
}

// --- E6: §4.1 — tempd overhead ------------------------------------------

func BenchmarkSec41_TempdOverhead(b *testing.B) {
	var busyPct float64
	for i := 0; i < b.N; i++ {
		p := thermal.DefaultOpteronParams()
		cpu, err := thermal.NewCPU(p)
		if err != nil {
			b.Fatal(err)
		}
		var mu sync.Mutex
		reg := sensors.NewRegistry(sensors.NewSimProvider(cpu, &mu, "n"))
		if err := reg.Discover(); err != nil {
			b.Fatal(err)
		}
		tr, _ := trace.NewTracer(trace.Config{Clock: vclock.NewRealClock()})
		d, err := tempd.New(tempd.Config{Registry: reg, Tracer: tr})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Start(); err != nil {
			b.Fatal(err)
		}
		time.Sleep(500 * time.Millisecond)
		if err := d.Stop(); err != nil {
			b.Fatal(err)
		}
		busyPct = d.BusyFraction() * 100
		if busyPct > 1 { // the paper: tempd used <1 % of CPU time
			b.Fatalf("tempd busy %.3f%%, paper <1%%", busyPct)
		}
	}
	b.ReportMetric(busyPct, "tempd_busy_pct")
}

// --- E7: Figure 3 + Table 2 — FT ----------------------------------------

func runNASProfile(b *testing.B, body func(rc *cluster.Rank) error) *parser.Profile {
	b.Helper()
	c, err := cluster.New(cluster.Config{
		Nodes: 4, RanksPerNode: 1, Seed: 7, Cost: nas.FTCost(), Heterogeneous: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := c.Run(body)
	if err != nil {
		b.Fatal(err)
	}
	p, err := parser.ParseAll(res.Traces, parser.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkFigure3_FT(b *testing.B) {
	var spread, commShare float64
	for i := 0; i < b.N; i++ {
		p := runNASProfile(b, func(rc *cluster.Rank) error {
			_, err := nas.RunFT(rc, nas.ClassS)
			return err
		})
		nodes, err := hotspot.HotNodes(p, 0)
		if err != nil {
			b.Fatal(err)
		}
		spread = nodes[0].Avg - nodes[len(nodes)-1].Avg
		// Paper: thermals vary between nodes under the same load.
		if spread <= 0 {
			b.Fatal("no node-to-node variation")
		}
		mainP, _ := p.Nodes[0].Function("main")
		a2a, ok := p.Nodes[0].Function("MPI_Alltoall")
		if !ok {
			b.Fatal("no all-to-all in FT profile")
		}
		commShare = float64(a2a.TotalTime) / float64(mainP.TotalTime) * 100
		// Paper: FT spends ~50 % of its time in all-to-all.
		if commShare < 25 || commShare > 75 {
			b.Fatalf("alltoall share %.0f%%, paper ≈50%%", commShare)
		}
	}
	b.ReportMetric(spread, "node_spread_F")
	b.ReportMetric(commShare, "alltoall_share_pct")
}

func BenchmarkTable2_FTProfile(b *testing.B) {
	var funcs int
	for i := 0; i < b.N; i++ {
		p := runNASProfile(b, func(rc *cluster.Rank) error {
			_, err := nas.RunFT(rc, nas.ClassS)
			return err
		})
		np := &p.Nodes[0]
		funcs = len(np.Functions)
		// Table 2's structure: per-function rows with six sensor columns.
		for _, name := range []string{"fft", "evolve", "transpose", "checksum"} {
			fp, ok := np.Function(name)
			if !ok {
				b.Fatalf("%s missing", name)
			}
			if fp.Significant && len(fp.Sensors) != 6 {
				b.Fatalf("%s has %d sensor columns, want 6", name, len(fp.Sensors))
			}
		}
	}
	b.ReportMetric(float64(funcs), "profiled_functions")
}

// --- E8: Figure 4 + Table 3 — BT ----------------------------------------

func BenchmarkFigure4_BT(b *testing.B) {
	var syncS, minJump, maxTemp float64
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Config{
			Nodes: 4, RanksPerNode: 1, Seed: 7, Cost: nas.FTCost(), Heterogeneous: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run(func(rc *cluster.Rank) error {
			_, err := nas.RunBT(rc, nas.ClassS)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		p, err := parser.ParseAll(res.Traces, parser.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Locate the synchronisation event (paper: ≈1.5 s in).
		var syncAt time.Duration
		for _, e := range res.Traces[0].Events {
			if e.Kind == trace.KindMarker {
				if name, _ := res.Traces[0].Sym.Name(e.FuncID); name == "startup_sync" {
					syncAt = e.TS
				}
			}
		}
		syncS = syncAt.Seconds()
		if syncS < 1.0 || syncS > 2.5 {
			b.Fatalf("sync event at %.2f s, paper ≈1.5 s", syncS)
		}
		// Paper: at the sync event all nodes see a dramatic rise.
		minJump = math.Inf(1)
		maxTemp = 0
		for n := range p.Nodes {
			ts, vs, err := p.Nodes[n].Series(0)
			if err != nil {
				b.Fatal(err)
			}
			var atSync, peak float64
			for k := range ts {
				if ts[k] <= syncAt {
					atSync = vs[k]
				}
				if vs[k] > peak {
					peak = vs[k]
				}
			}
			if jump := peak - atSync; jump < minJump {
				minJump = jump
			}
			if peak > maxTemp {
				maxTemp = peak
			}
		}
		if minJump < 10 {
			b.Fatalf("weakest node's post-sync rise %.1f °F, want ≥10", minJump)
		}
	}
	b.ReportMetric(syncS, "sync_time_s")
	b.ReportMetric(minJump, "min_post_sync_rise_F")
	b.ReportMetric(maxTemp, "hottest_node_F")
}

func BenchmarkTable3_BTProfile(b *testing.B) {
	var adiShare float64
	for i := 0; i < b.N; i++ {
		p := runNASProfile(b, func(rc *cluster.Rank) error {
			_, err := nas.RunBT(rc, nas.ClassS)
			return err
		})
		np := &p.Nodes[0]
		// Table 3's rows: adi_ and the solver kernels.
		for _, name := range []string{"adi_", "x_solve", "y_solve", "z_solve", "compute_rhs", "add"} {
			if _, ok := np.Function(name); !ok {
				b.Fatalf("%s missing", name)
			}
		}
		adi, _ := np.Function("adi_")
		mainP, _ := np.Function("main")
		adiShare = float64(adi.TotalTime) / float64(mainP.TotalTime) * 100
		if adiShare < 50 {
			b.Fatalf("adi_ share %.0f%%, want dominant", adiShare)
		}
	}
	b.ReportMetric(adiShare, "adi_share_pct")
}

// --- E9: §3.3 — TSC skew and binding -------------------------------------

func BenchmarkSec33_TSCSkew(b *testing.B) {
	var boundErrNS, unboundErrNS float64
	for i := 0; i < b.N; i++ {
		clk := vclock.NewVirtualClock()
		tsc, err := vclock.NewTSC(clk, vclock.SkewedCores(4, 1.8e9, 20_000_000, 0, 7))
		if err != nil {
			b.Fatal(err)
		}
		measure := func(r *vclock.Reader) float64 {
			// Timestamp 1 ms intervals; report the worst absolute error.
			var worst float64
			prev, _ := r.Read()
			for k := 0; k < 200; k++ {
				clk.Advance(time.Millisecond)
				cur, _ := r.Read()
				gotNS := float64(cur-prev) / 1.8e9 * 1e9
				if e := math.Abs(gotNS - 1e6); e > worst {
					worst = e
				}
				prev = cur
			}
			return worst
		}
		bound, err := vclock.NewBoundReader(tsc, 0)
		if err != nil {
			b.Fatal(err)
		}
		boundErrNS = measure(bound)
		unboundErrNS = measure(vclock.NewUnboundReader(tsc, 3))
		// The paper binds processes to cores to avoid cross-core skew:
		// bound error must be microscopic, unbound dominated by skew.
		if boundErrNS > 1000 {
			b.Fatalf("bound reader error %.0f ns", boundErrNS)
		}
		if unboundErrNS < 1e5 {
			b.Fatalf("unbound reader error %.0f ns — skew not visible", unboundErrNS)
		}
	}
	b.ReportMetric(boundErrNS, "bound_err_ns")
	b.ReportMetric(unboundErrNS, "unbound_err_ns")
}

// --- E10: §5 — hot-node / hot-function identification --------------------

func BenchmarkSec5_HotspotRanking(b *testing.B) {
	var topScore float64
	for i := 0; i < b.N; i++ {
		p := runNASProfile(b, func(rc *cluster.Rank) error {
			_, err := nas.RunBT(rc, nas.ClassS)
			return err
		})
		funcs, err := hotspot.HotFunctions(p, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(funcs) == 0 {
			b.Fatal("no ranked functions")
		}
		topScore = funcs[0].Score
		nodes, err := hotspot.HotNodes(p, 0)
		if err != nil {
			b.Fatal(err)
		}
		if nodes[0].Avg < nodes[len(nodes)-1].Avg {
			b.Fatal("node ranking inverted")
		}
	}
	b.ReportMetric(topScore, "top_function_score")
}
