// Command _bench is Tempest's pipeline benchmark: one driver for the
// path instrument.Trace → lane → LiveSession drain → Shipper → collector
// shard → store.Disk → parser.Builder/critpath → archive → HTTP query.
// See README.md in this directory for the workload and metric
// definitions; BENCHMARK.json at the repository root names every metric,
// its unit and its regression bound.
//
// Run it from the repository root:
//
//	go run ./_bench                      every workload at full size
//	go run ./_bench -workload fleet_ingest -seed 7
//	go run ./_bench -trace 1             the traced, per-layer run
//	go run ./_bench -validate            compile-and-run guard (< 30 s)
//	go run ./_bench -aa 5                two interleaved sets of 5 runs
//	go run ./_bench -analyze             summarise _bench/out/runs.jsonl
//
// The directory name starts with an underscore so that neither the go
// tool's ./... nor the repository's own analysis loader sees it: a
// package under the module that calls into internal/collect would change
// the repository's self-analysis and break its golden ranking test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// runCtx is what one run's workloads share.
type runCtx struct {
	seed      int64
	seconds   float64 // work budget: every count in a workload is a rate × seconds
	nproc     int
	daemonBin string
	storeDir  string
	inProcess bool     // traced run: collector inside the driver
	spans     *spanLog // nil when untraced
	res       *result  // end-to-end metrics and failure accounting
	layer     *result  // per-layer metrics; nil when untraced
	setup     time.Duration
	ref       *reference // the kernel pipeline timings are normalised by
}

// workload is one of the four, cut into runSteps equal shares of its
// measured work so that the four can take turns: step i of every
// workload runs before step i+1 of any. Nothing of two workloads is ever
// measured at the same time, but every workload's samples are spread
// over the whole run. That is what makes a run repeat on this host,
// whose speed for memory-bound code wanders by tens of percent on a
// scale of seconds (README, "Why the quiet decile"): ingest measured as
// four bursts spread over half a minute had half the run-to-run spread
// of the same events ingested in one go.
type workload interface {
	// setup starts what the workload measures against — collectors,
	// sessions, preloaded histories. Its duration counts as set-up.
	setup(ctx *runCtx, scale float64) error
	// step does the i-th share of the measured work and keeps its samples.
	step(ctx *runCtx, i int) error
	// finish turns the samples into metrics and holds the program's
	// outputs against the reference.
	finish(ctx *runCtx) error
	// stop ends what setup started. It is called once, after finish or
	// after the first error.
	stop()
}

// runSteps is how many turns every workload gets in a run.
const runSteps = 10

// workloads lists the four in the order they take their turns.
var workloads = []struct {
	name string
	new  func() workload
}{
	{"live_node", func() workload { return &liveNode{} }},
	{"fleet_ingest", func() workload { return &fleetIngest{} }},
	{"fleet_mixed", func() workload { return &fleetMixed{} }},
	{"history_query", func() workload { return &historyQuery{} }},
}

// probeScale is the size of the workloads a run does not name. The
// harness wants every end-to-end metric from every run, so a run of one
// workload still exercises the other three, at half their size; a metric
// is cited from the workload that owns it. Half, not less: the gate holds
// every (workload, metric) cell to the same bound, and a probe much
// smaller than this is too noisy on a shared host to stay inside it.
const probeScale = 0.5

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "_bench: "+format+"\n", args...)
	runCleanups()
	os.Exit(2)
}

func main() {
	workload := flag.String("workload", "all", "workload to run at full size: live_node|fleet_ingest|fleet_mixed|history_query|all (the others run at probe size)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 0, "work budget; every count is a rate times this (0 = run_seconds from BENCHMARK.json)")
	traced := flag.Int("trace", 0, "1 = traced run: collector in-process, spans around every layer call, per-layer metrics")
	validate := flag.Bool("validate", false, "run every workload at 1/50 size, untraced and traced, and check the emitted metric set against BENCHMARK.json")
	analyze := flag.Bool("analyze", false, "summarise _bench/out/runs.jsonl per workload and metric, then exit")
	aa := flag.Int("aa", 0, "run two interleaved sets of N runs per workload of this build and compare them against the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "_bench: interrupted; stopping children and removing scratch directories")
		runCleanups()
		os.Exit(130)
	}()

	spec, err := loadSpec()
	if err != nil {
		fatalf("%v", err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *workload != "all" && !spec.hasWorkload(*workload) {
		fatalf("unknown workload %q", *workload)
	}

	var ok bool
	switch {
	case *analyze:
		ok = analyzeRuns(spec)
	case *aa > 0:
		ok = runAA(spec, *aa, *seed, *seconds)
	case *validate:
		ok = runValidate(spec, *seed, *seconds)
	default:
		out := runOnce(spec, *workload, *seed, *seconds, *traced == 1)
		ok = out.Correct
		line, err := json.Marshal(out)
		if err != nil {
			fatalf("result line: %v", err)
		}
		fmt.Println(string(line))
	}
	runCleanups()
	if !ok {
		os.Exit(1)
	}
}

// runOutput is the last line of a run, in the shape the harness reads.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOnce runs the named workload at full size and the others at probe
// size ("all": everything at full size), prints every metric, appends
// the run to runs.jsonl and returns the harness line.
func runOnce(spec *benchSpec, named string, seed int64, seconds float64, traced bool) runOutput {
	ctx := &runCtx{
		seed: seed, seconds: seconds, nproc: runtime.NumCPU(),
		res: newResult(spec, &account{}), inProcess: traced, ref: newReference(),
	}
	var storeKind string
	ctx.storeDir, storeKind = storeRoot()
	fmt.Printf("# tempest pipeline benchmark: workload=%s seed=%d seconds=%g trace=%v nproc=%d\n",
		named, seed, seconds, traced, ctx.nproc)
	fmt.Printf("# durable stores on %s\n", storeKind)
	if traced {
		ctx.layer = newResult(spec, ctx.res.account)
	} else {
		start := time.Now()
		bin, buildTook, err := buildDaemon()
		if err != nil {
			fatalf("%v", err)
		}
		ctx.daemonBin = bin
		ctx.setup = buildTook
		fmt.Printf("# built tempest-collectd three times in %.2fs; one build (median) %.2fs counts as set-up\n",
			time.Since(start).Seconds(), buildTook.Seconds())
	}

	// One entry per workload that is still running: a workload leaves the
	// run at its first error, which is booked as a failure.
	type running struct {
		name  string
		scale float64
		w     workload
		spans *spanLog
		took  time.Duration
	}
	var live []*running
	for _, w := range workloads {
		r := &running{name: w.name, scale: 1, w: w.new()}
		if named != "all" && named != w.name {
			r.scale = probeScale
		}
		if traced {
			r.spans = newSpanLog()
		}
		live = append(live, r)
	}
	// each calls fn for every running workload in order, with the run's
	// span log switched to the workload's own.
	each := func(what string, fn func(r *running) error) {
		kept := live[:0]
		for _, r := range live {
			ctx.spans = r.spans
			start := time.Now()
			err := fn(r)
			r.took += time.Since(start)
			if err != nil {
				ctx.res.attempt(1)
				ctx.res.fail(1, "%s: %s: %v", r.name, what, err)
				r.w.stop()
				continue
			}
			kept = append(kept, r)
		}
		live = kept
	}
	// The reference kernel is timed before every turn, so its passes are
	// spread over the run like every metric's samples.
	each("set-up", func(r *running) error {
		ctx.ref.pass()
		start := time.Now()
		err := r.w.setup(ctx, r.scale)
		ctx.setup += time.Since(start)
		return err
	})
	for i := 0; i < runSteps; i++ {
		each(fmt.Sprintf("step %d", i), func(r *running) error {
			ctx.ref.pass()
			return r.w.step(ctx, i)
		})
	}
	ctx.res.slowdown = ctx.ref.slowdown()
	fmt.Printf("# reference kernel: %d passes, lower quartile %.4g ms against %.4g ms nominal: pipeline timings are divided by %.4g\n",
		len(ctx.ref.passes), quantile(ctx.ref.passes, 0.25)*1e3, refNominal.Seconds()*1e3, ctx.res.slowdown)
	each("finish", func(r *running) error {
		err := r.w.finish(ctx)
		r.w.stop()
		if traced && err == nil {
			layerProbes(ctx, r.name, r.scale)
			err = r.spans.write(r.name)
		}
		fmt.Printf("# %-13s scale %-5g took %.1fs\n", r.name, r.scale, r.took.Seconds())
		return err
	})

	res := ctx.res
	res.emit("setup_s", ctx.setup.Seconds())
	res.note("setup_s", "one daemon build, collector and session starts, the histories fleet_mixed and history_query start from")
	shown, want := res, spec.EndToEnd
	if traced {
		// The traced run reports the per-layer set only; its end-to-end
		// numbers carry tracing overhead and are not to be quoted.
		shown, want = ctx.layer, spec.PerLayer
	}
	absent, extra := shown.missing(want)
	for _, name := range absent {
		shown.fail(1, "metric %s was not produced", name)
	}
	for _, name := range extra {
		shown.fail(1, "metric %s is not in this run's list in BENCHMARK.json", name)
		delete(shown.Metrics, name)
	}
	out := runOutput{Correct: shown.Failed == 0, Attempted: shown.Attempted, Failed: shown.Failed, Metrics: shown.Metrics}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	fmt.Println("# metrics")
	shown.print(want)
	fmt.Printf("  %-34s %14.6g %-8s %d failed of %d attempted\n", "failed_frac", float64(out.Failed)/float64(out.Attempted), "ratio", out.Failed, out.Attempted)
	for _, p := range shown.Problems {
		fmt.Println("# FAILED:", p)
		fmt.Fprintln(os.Stderr, "_bench: FAILED:", p) // whoever keeps only stderr sees why
	}
	appendRun(named, seed, seconds, traced, storeKind, out)
	return out
}
