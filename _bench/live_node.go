package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"tempest"
	"tempest/instrument"
	"tempest/internal/introspect"
	"tempest/internal/trace"
)

// The instrumented program of live_node: a call tree of liveFuncs
// functions, each carrying the prologue tempest-instrument generates.
// Function i calls functions 7i+1 … 7i+7 (those below liveFuncs), so one
// walk from the root makes exactly liveFuncs calls: 5 inner functions
// and 27 leaves.
const (
	liveFuncs  = 32
	liveFanout = 7
	liveNodeID = 1
	// liveRounds is how often the four phases (inert and attached, detail
	// and coarse leaf) take turns. This host's speed wanders on a scale of
	// tenths of a second to seconds; with the phases interleaved every
	// phase's samples are spread over the whole workload, so the wander
	// reaches the inert and the attached median alike and leaves their
	// difference alone.
	liveRounds = 3 * runSteps
	// coarseBlockWalks walks make one timed sample of the coarse pair: a
	// single walk of 20 ns leaves is too short to time.
	coarseBlockWalks = 32
)

var (
	liveSlots     []int
	liveNames     []string
	liveLeafIters int     // float operations per leaf call
	liveSink      float64 // keeps the leaf loop from being optimised away
)

func liveRegister() {
	if liveSlots != nil {
		return
	}
	for i := 0; i < liveFuncs; i++ {
		liveNames = append(liveNames, fmt.Sprintf("bench.live.f%02d", i))
	}
	liveSlots = instrument.Register("tempest/_bench/live", liveNames)
}

func liveCall(i int) {
	defer instrument.Trace(liveSlots[i])()
	first := liveFanout*i + 1
	if first >= liveFuncs {
		s := liveSink
		for k := 0; k < liveLeafIters; k++ {
			s += math.Sqrt(s + float64(k))
		}
		liveSink = s
		return
	}
	for c := first; c < first+liveFanout && c < liveFuncs; c++ {
		liveCall(c)
	}
}

// Leaf sizes: ≈0.5 µs of float work for the detail pair; ≈20 ns for the
// coarse pair, so a ~100 ns hook is not lost in body-time noise.
const (
	detailLeafIters = 100
	coarseLeafIters = 4
)

// liveSamples times n samples of walks walks each, under one span, and
// appends the per-sample wall times in seconds to secs.
func liveSamples(ctx *runCtx, secs []float64, name string, round, n, walks int) []float64 {
	id := ctx.spans.begin(name, 0, round+1)
	for i := 0; i < n; i++ {
		start := time.Now()
		for w := 0; w < walks; w++ {
			liveCall(0)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	ctx.spans.end(id, int64(n*walks)*liveFuncs)
	return secs
}

// liveNode is the paper's §3.4 measurement: what one traced call costs
// the program that makes it. Each hook cost is the difference of like
// walls — the same walk with the session's hooks attached and with them
// detached (the inert path of a binary that carries the prologue).
// Closed loop, one workload goroutine; the drain loop, the shipper and
// the child collector run beside it while it measures.
type liveNode struct {
	col      *collectorEnd
	reg      *introspect.Registry
	ship     *watchedShipper
	sess     *tempest.LiveSession
	shipErrs int64 // written by the session's drain goroutine, read after Close

	// Per round: detailWalks timed walks per detail phase, coarseBlocks
	// timed blocks of coarseBlockWalks walks per coarse phase.
	detailWalks, coarseBlocks int
	rounds                    int
	attached                  time.Duration // wall time of the steps, the session's busy life

	inertDetail, detail, inertCoarse, coarse []float64
}

func (l *liveNode) setup(ctx *runCtx, scale float64) error {
	liveRegister()
	instrument.Detach(nil)
	instrument.Apply(instrument.Directive{Default: instrument.ModeDetail})
	instrument.FlushCoarse()
	l.detailWalks = max(int(40_000*ctx.seconds*scale)/liveRounds/liveFuncs, 4)
	l.coarseBlocks = max(int(500_000*ctx.seconds*scale)/liveRounds/liveFuncs/coarseBlockWalks, 4)

	col, err := ctx.startCollector(collectorConfig{})
	if err != nil {
		return err
	}
	l.col = col
	l.reg = introspect.New()
	l.ship = newWatchedShipper(col.ingest, liveNodeID, l.reg)
	spans := ctx.spans // the drain goroutine outlives this call
	l.sess, err = tempest.NewLiveSession(tempest.LiveConfig{
		HwmonRoot:             filepath.Join(ctx.storeDir, "no-hwmon"),
		AllowSimulatedSensors: true,
		SampleRateHz:          4,
		NodeID:                liveNodeID,
		LaneBufferCap:         1 << 21,
		Introspect:            l.reg,
		DrainSink: func(events []trace.Event, sym *trace.SymTab) {
			id := spans.begin("shipper.Ship", 0, 0)
			if err := l.ship.Ship(events, sym); err != nil {
				l.shipErrs++
			}
			spans.end(id, int64(len(events)))
		},
	})
	if err != nil {
		return fmt.Errorf("live session: %w", err)
	}
	return nil
}

// step runs liveRounds/runSteps rounds of the four phases. Between steps
// the session stays open with its hooks detached.
func (l *liveNode) step(ctx *runCtx, i int) error {
	start := time.Now()
	for r := 0; r < liveRounds/runSteps; r++ {
		l.rounds++
		liveLeafIters = detailLeafIters
		l.sess.DisableAutoInstrument()
		l.inertDetail = liveSamples(ctx, l.inertDetail, "instrument.Trace inert (detail leaf)", l.rounds, l.detailWalks, 1)
		instrument.Apply(instrument.Directive{Default: instrument.ModeDetail})
		l.sess.EnableAutoInstrument()
		l.detail = liveSamples(ctx, l.detail, "instrument.Trace detail", l.rounds, l.detailWalks, 1)

		liveLeafIters = coarseLeafIters
		l.sess.DisableAutoInstrument()
		l.inertCoarse = liveSamples(ctx, l.inertCoarse, "instrument.Trace inert (coarse leaf)", l.rounds, l.coarseBlocks, coarseBlockWalks)
		instrument.Apply(instrument.Directive{Default: instrument.ModeCoarse})
		l.sess.EnableAutoInstrument()
		l.coarse = liveSamples(ctx, l.coarse, "instrument.Trace coarse", l.rounds, l.coarseBlocks, coarseBlockWalks)
	}
	l.sess.DisableAutoInstrument()
	l.attached += time.Since(start)
	return nil
}

func (l *liveNode) finish(ctx *runCtx) error {
	res := ctx.res
	tempdBusy := l.sess.TempdBusyFraction()
	_, closeErr := l.sess.Close()
	l.sess = nil
	instrument.Apply(instrument.Directive{Default: instrument.ModeDetail})
	instrument.FlushCoarse()
	shipCloseErr := l.ship.Close()

	// The hook cost is a difference of like floors: an attached sample the
	// host left alone minus an inert sample it left alone, per call.
	hook := func(metric string, attached, inert []float64, calls int) {
		perCall := 1e9 / float64(calls)
		res.emit(metric, (floorCost(attached)-floorCost(inert))*perCall)
		res.note(metric, "a sample is %d calls; floor (the %dth fastest sample) attached %.4g minus inert %.4g ns/call; attached: %s",
			calls, floorRank, floorCost(attached)*perCall, floorCost(inert)*perCall, describe(attached, perCall))
	}
	hook("detail_hook_ns", l.detail, l.inertDetail, liveFuncs)
	hook("coarse_hook_ns", l.coarse, l.inertCoarse, coarseBlockWalks*liveFuncs)

	// Failure accounting: every traced call must reach the collector.
	detailCalls := int64(l.detailWalks) * liveFuncs * int64(l.rounds)
	coarseCalls := int64(l.coarseBlocks) * coarseBlockWalks * liveFuncs * int64(l.rounds)
	res.attempt(detailCalls + coarseCalls)
	overflow := int64(regValue(l.reg, "tempest_live_lane_overflow_total"))
	res.fail(overflow, "live_node: %d events dropped by lane overflow", overflow)
	st := l.ship.Stats()
	res.fail(int64(st.DroppedEvents), "live_node: shipper dropped %d events (%d Ship errors)", st.DroppedEvents, l.shipErrs)
	if closeErr != nil {
		res.fail(1, "live_node: session close: %v", closeErr)
	}
	if shipCloseErr != nil && st.DroppedEvents == 0 {
		res.fail(1, "live_node: shipper close: %v", shipCloseErr)
	}
	// Oracle: the collector's profile of this node counts exactly the
	// calls made in detail mode, function by function (coarse-mode calls
	// produce no events by design).
	got, err := profileCalls(l.col.http, liveNodeID)
	if err != nil {
		res.fail(1, "live_node: %v", err)
	} else {
		bad := 0
		for _, name := range liveNames {
			if got[name] != int64(l.detailWalks*l.rounds) {
				bad++
			}
		}
		res.fail(int64(bad), "live_node: %d of %d functions have a call count in /api/profile/%d other than the %d calls made",
			bad, liveFuncs, liveNodeID, l.detailWalks*l.rounds)
	}

	if ctx.layer != nil {
		drain := regDist(l.reg, "tempest_live_drain_seconds")
		ctx.layer.emit("live.drain_busy_frac", drain.Sum/l.attached.Seconds())
		ctx.layer.emit("live.lane_high_water", regValue(l.reg, "tempest_live_lane_high_water"))
		ctx.layer.emit("live.overflow_events", float64(overflow))
		ctx.layer.emit("tempd.busy_frac", tempdBusy)
	}
	return nil
}

func (l *liveNode) stop() {
	if l.sess != nil {
		l.sess.Close()
		instrument.Apply(instrument.Directive{Default: instrument.ModeDetail})
		instrument.FlushCoarse()
		l.ship.Close()
	}
	if l.col != nil {
		l.col.stop()
	}
}

// profileCalls reads /api/profile/{node} and returns calls per function.
func profileCalls(base string, node uint32) (map[string]int64, error) {
	status, body, _, err := get(fmt.Sprintf("%s/api/profile/%d", base, node))
	if err != nil || status != 200 {
		return nil, fmt.Errorf("GET /api/profile/%d: status %d, %v", node, status, err)
	}
	var p struct {
		Nodes []struct {
			Functions []struct {
				Name  string `json:"name"`
				Calls int64  `json:"calls"`
			} `json:"functions"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("/api/profile/%d: %w", node, err)
	}
	out := map[string]int64{}
	for _, n := range p.Nodes {
		for _, f := range n.Functions {
			out[f.Name] = f.Calls
		}
	}
	return out, nil
}
