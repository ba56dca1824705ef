package tempest

import (
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tempest/instrument"
	"tempest/internal/collect"
	"tempest/internal/trace"
)

var adaptiveSink float64

// e2eSlots are the test workload's instrumented functions, interned the
// way cmd/tempest-instrument's generated init code would.
var (
	e2eOnce  sync.Once
	e2eSlots []int
)

func e2eRegister() []int {
	e2eOnce.Do(func() {
		e2eSlots = instrument.Register("tempest/adaptive_e2e", []string{"e2e.hotLoop", "e2e.coldTick"})
	})
	return e2eSlots
}

// e2eHot is the hot spot: ~2 ms of real floating-point work per call,
// so its detail-mode event rate stays far under the lane cap while its
// cumulative time dominates the coarse ranking.
func e2eHot() {
	defer instrument.Trace(e2eRegister()[0])()
	deadline := time.Now().Add(2 * time.Millisecond)
	s := adaptiveSink
	for time.Now().Before(deadline) {
		for i := 0; i < 500; i++ {
			s += math.Sqrt(s + float64(i))
		}
	}
	adaptiveSink = s
}

// e2eCold is the high-frequency noise: near-zero time per call but
// called three orders of magnitude more often than e2eHot — under full
// detail instrumentation its enter/exit pairs flood the lane buffer.
func e2eCold() {
	defer instrument.Trace(e2eRegister()[1])()
}

// e2eWorkload runs one iteration: one hot burst and a swarm of cold calls.
func e2eWorkload() {
	e2eHot()
	for i := 0; i < 1000; i++ {
		e2eCold()
	}
}

// resetInstrument restores the process-wide instrumentation policy
// around a test that drives it (mirrors instrument's own test helper).
func resetInstrument(t *testing.T) {
	t.Helper()
	restore := func() {
		instrument.Detach(nil)
		instrument.SetDefaultMode(instrument.ModeDetail)
		instrument.Apply(instrument.Directive{Default: instrument.ModeDetail})
		instrument.FlushCoarse()
	}
	restore()
	t.Cleanup(restore)
}

func e2eLiveConfig(t *testing.T, drain time.Duration) LiveConfig {
	t.Helper()
	return LiveConfig{
		HwmonRoot:             filepath.Join(t.TempDir(), "none"),
		AllowSimulatedSensors: true,
		SampleRateHz:          4,
		NodeID:                21,
		DrainInterval:         drain,
		LaneBufferCap:         256,
	}
}

func hasDetailOverride(st instrument.Status, name string) bool {
	for _, f := range st.Overrides {
		if f.Name == name && f.Mode == instrument.ModeDetail {
			return true
		}
	}
	return false
}

// TestAdaptiveSamplingClosesTheLoop is the closed-loop acceptance test
// for the adaptive control plane. Phase 1 establishes the problem: the
// workload under full detail instrumentation overruns a small lane
// buffer between drains (dropped events — the failure adaptive sampling
// exists to prevent). Phase 2 runs the same workload and lane cap
// end-to-end through the loop — coarse default, buckets shipped to a
// policy-enabled collector, directives piggybacked on acks and applied
// between drains — and must promote the hot function to detail within
// two policy rounds while dropping nothing, with measured overhead
// still under the paper's 7 % bound.
func TestAdaptiveSamplingClosesTheLoop(t *testing.T) {
	resetInstrument(t)
	e2eRegister()

	// Phase 1: full detail instrumentation at this event density loses
	// events — every cold call pays the enter/exit pair into a 256-event
	// lane drained only every 200 ms.
	s1, err := NewLiveSession(e2eLiveConfig(t, 200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	s1.EnableAutoInstrument()
	for i := 0; i < 100; i++ {
		e2eWorkload()
	}
	fullDrops := s1.tracer.DroppedCount()
	if _, err := s1.Close(); err != nil {
		// Expected at this density: dropped enters orphan their exits and
		// the builder reports the desync — the very failure the adaptive
		// loop exists to prevent.
		t.Logf("full-detail close reported desync (expected): %v", err)
	}
	instrument.FlushCoarse() // phase 1's buckets are not phase 2's signal
	if fullDrops == 0 {
		t.Fatal("full detail instrumentation did not overflow the lane buffer; the workload no longer exercises the failure mode")
	}

	// Phase 2: the same workload, same lane cap, adaptive.
	c := collect.New(collect.Options{Policy: collect.PolicyOptions{
		Enabled: true, TopK: 1, Interval: 100 * time.Millisecond,
	}})
	defer c.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(ln)

	// The holder bridges OnControl (downstream reader goroutine, may fire
	// before the session exists) to ApplyControl — tempest-live's wiring.
	var ctlMu sync.Mutex
	var ctlSession *LiveSession
	var ctlPending *instrument.Directive
	shipper := collect.NewShipper(ln.Addr().String(), 21, 0, collect.ShipperOptions{
		FlushTimeout: 10 * time.Second,
		OnControl: func(d instrument.Directive) {
			ctlMu.Lock()
			defer ctlMu.Unlock()
			if ctlSession != nil {
				ctlSession.ApplyControl(d)
				return
			}
			ctlPending = &d
		},
	})

	instrument.SetDefaultMode(instrument.ModeCoarse)
	cfg := e2eLiveConfig(t, 50*time.Millisecond)
	cfg.DrainSink = func(ev []trace.Event, sym *trace.SymTab) { _ = shipper.Ship(ev, sym) }
	cfg.CoarseSink = func(cs []instrument.CoarseStat) { _ = shipper.ShipCoarse(cs) }
	s2, err := NewLiveSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctlMu.Lock()
	ctlSession = s2
	if ctlPending != nil {
		s2.ApplyControl(*ctlPending)
		ctlPending = nil
	}
	ctlMu.Unlock()
	s2.EnableAutoInstrument()

	deadline := time.Now().Add(15 * time.Second)
	var promotedSt instrument.Status
	promoted := false
	for time.Now().Before(deadline) {
		e2eWorkload()
		if st := s2.Instrumentation(); hasDetailOverride(st, "e2e.hotLoop") {
			promotedSt = st
			promoted = true
			break
		}
	}
	if !promoted {
		t.Fatalf("hot function never promoted to detail; instrumentation %+v, policy %+v",
			s2.Instrumentation(), c.PolicyStatuses())
	}
	// "Within two policy rounds": the applied directive revision counts
	// issued policy changes, and promotion must be among the first two.
	if promotedSt.Rev == 0 || promotedSt.Rev > 2 {
		t.Fatalf("promotion arrived at directive rev %d, want 1 or 2", promotedSt.Rev)
	}
	if promotedSt.Default != instrument.ModeCoarse {
		t.Fatalf("default mode = %v after promotion, want coarse", promotedSt.Default)
	}
	if hasDetailOverride(promotedSt, "e2e.coldTick") {
		t.Fatalf("cold function promoted to detail: %+v", promotedSt.Overrides)
	}

	// Keep the loop running under the nominated policy: the hot function
	// now streams full events, and nothing may overflow.
	for i := 0; i < 30; i++ {
		e2eWorkload()
	}
	adaptiveDrops := s2.tracer.DroppedCount()
	p, err := s2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := shipper.Close(); err != nil {
		t.Fatal(err)
	}
	if adaptiveDrops != 0 {
		t.Fatalf("adaptive run dropped %d events; the loop did not relieve lane pressure", adaptiveDrops)
	}
	if p.OverheadFraction >= 0.07 {
		t.Fatalf("adaptive overhead %.4f exceeds the paper's 7%% bound", p.OverheadFraction)
	}
	sts := c.PolicyStatuses()
	if len(sts) != 1 || sts[0].Tracked < 2 {
		t.Fatalf("collector policy state = %+v, want 1 node tracking both functions", sts)
	}
	if len(sts[0].Detail) != 1 || sts[0].Detail[0].Name != "e2e.hotLoop" {
		t.Fatalf("collector detail set = %+v, want [e2e.hotLoop]", sts[0].Detail)
	}
	// A real tracer's drains, shipped as they come: nothing may land
	// behind the collector-side builder's fold boundary.
	for _, st := range c.Nodes() {
		if st.LateEvents != 0 || st.Err != "" {
			t.Fatalf("collector node status %+v, want no late events and no error", st)
		}
	}
}
