package parser

import (
	"math"
	"strings"
	"testing"
	"time"

	"tempest/internal/thermal"
	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// microDTrace builds the paper's micro-benchmark D shape on one lane:
// main(0..70s) → foo1(0..60s, hot) → foo2(60..60.0001s), with two sensors
// sampled at 4 Hz: sensor 0 ramps 34→51 °C during foo1 then falls back,
// sensor 1 stays at 34.5 °C.
func microDTrace(t *testing.T) *trace.Trace {
	t.Helper()
	clk := vclock.NewVirtualClock()
	tr, err := trace.NewTracer(trace.Config{Clock: clk, NodeID: 0})
	if err != nil {
		t.Fatal(err)
	}
	tr.MarkerAt("sensor:0:CPU 0 Core", 0)
	tr.MarkerAt("sensor:1:M/B Temp", 0)
	lane := tr.NewLane()
	mainF := tr.RegisterFunc("main")
	foo1 := tr.RegisterFunc("foo1")
	foo2 := tr.RegisterFunc("foo2")

	lane.EnterAt(mainF, 0)
	lane.EnterAt(foo1, 0)
	lane.ExitAt(foo1, 60*time.Second)
	lane.EnterAt(foo2, 60*time.Second)
	lane.ExitAt(foo2, 60*time.Second+100*time.Microsecond)
	lane.ExitAt(mainF, 70*time.Second)

	interval := 250 * time.Millisecond
	for ts := time.Duration(0); ts <= 70*time.Second; ts += interval {
		sec := ts.Seconds()
		var cpu float64
		if sec <= 60 {
			cpu = 34 + 17*(1-math.Exp(-sec/20))
		} else {
			peak := 34 + 17*(1-math.Exp(-3.0))
			cpu = 34 + (peak-34)*math.Exp(-(sec-60)/20)
		}
		tr.SampleAt(0, math.Round(cpu), ts)
		tr.SampleAt(1, 34.5, ts)
	}
	return tr.Finish()
}

func TestParseMicroD(t *testing.T) {
	np, err := Parse(microDTrace(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if np.NodeID != 0 || np.Unit != Fahrenheit {
		t.Errorf("header: %+v", np)
	}
	if len(np.SensorNames) != 2 || np.SensorNames[0] != "CPU 0 Core" {
		t.Errorf("sensors = %v", np.SensorNames)
	}
	if np.Duration != 70*time.Second {
		t.Errorf("duration = %v", np.Duration)
	}
	if np.SampleInterval != 250*time.Millisecond {
		t.Errorf("detected interval = %v", np.SampleInterval)
	}

	// Listing order: main (70 s), foo1 (60 s), foo2 (~0 s).
	if np.Functions[0].Name != "main" || np.Functions[1].Name != "foo1" || np.Functions[2].Name != "foo2" {
		t.Fatalf("order: %v %v %v", np.Functions[0].Name, np.Functions[1].Name, np.Functions[2].Name)
	}
	mainP := np.Functions[0]
	if mainP.TotalTime != 70*time.Second || mainP.Calls != 1 {
		t.Errorf("main: %+v", mainP)
	}
	foo1P := np.Functions[1]
	if foo1P.TotalTime != 60*time.Second {
		t.Errorf("foo1 total = %v", foo1P.TotalTime)
	}
	if !foo1P.Significant {
		t.Error("foo1 must be significant")
	}
	// foo1's CPU sensor: heats from ≈93 °F toward ≈124 °F.
	s0 := foo1P.Sensors[0]
	if s0.N == 0 {
		t.Fatal("foo1 sensor0 has no samples")
	}
	if s0.Min < 90 || s0.Min > 96 {
		t.Errorf("foo1 min = %v °F", s0.Min)
	}
	if s0.Max < 117 || s0.Max > 127 {
		t.Errorf("foo1 max = %v °F", s0.Max)
	}
	if !(s0.Min <= s0.Med && s0.Med <= s0.Max) {
		t.Error("median out of range")
	}
	// foo2: far below the sampling interval → not significant (Fig 2a).
	foo2P := np.Functions[2]
	if foo2P.Significant {
		t.Error("foo2 must be insignificant (shorter than sampling interval)")
	}
	// Mobo sensor stays flat.
	s1 := mainP.Sensors[1]
	if s1.Sdv > 1e-9 { // float C→F conversion leaves ~1e-13 noise
		t.Errorf("flat sensor Sdv = %v", s1.Sdv)
	}
	if math.Abs(s1.Avg-thermal.CToF(34.5)) > 1e-9 {
		t.Errorf("flat sensor Avg = %v", s1.Avg)
	}
}

func TestParseCelsius(t *testing.T) {
	np, err := Parse(microDTrace(t), Options{Unit: Celsius})
	if err != nil {
		t.Fatal(err)
	}
	mainP := np.Functions[0]
	if math.Abs(mainP.Sensors[1].Avg-34.5) > 1e-9 {
		t.Errorf("celsius avg = %v", mainP.Sensors[1].Avg)
	}
	if np.Unit.String() != "°C" {
		t.Errorf("unit = %v", np.Unit)
	}
}

func TestFunctionLookupAndSeries(t *testing.T) {
	np, err := Parse(microDTrace(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := np.Function("foo1"); !ok {
		t.Error("foo1 missing")
	}
	if _, ok := np.Function("ghost"); ok {
		t.Error("ghost found")
	}
	ts, vs, err := np.Series(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != len(vs) || len(ts) != 281 { // 70s/0.25s + 1
		t.Errorf("series length = %d", len(ts))
	}
	if _, _, err := np.Series(5); err == nil {
		t.Error("out-of-range sensor should fail")
	}
}

func TestTrendDetectsWarming(t *testing.T) {
	clk := vclock.NewVirtualClock()
	tr, _ := trace.NewTracer(trace.Config{Clock: clk})
	for i := 0; i <= 100; i++ {
		ts := time.Duration(i) * 250 * time.Millisecond
		tr.SampleAt(0, 30+float64(i)*0.1, ts) // warming
		tr.SampleAt(1, 35, ts)                // flat
	}
	np, err := Parse(tr.Finish(), Options{Unit: Celsius})
	if err != nil {
		t.Fatal(err)
	}
	up, err := np.Trend(0)
	if err != nil {
		t.Fatal(err)
	}
	if up <= 0.3 { // 0.1 °C per 250 ms = 0.4 °C/s
		t.Errorf("warming trend = %v", up)
	}
	if _, err := np.Trend(1); err == nil {
		t.Log("flat trend fit is fine too") // zero x variance only if <2 samples
	}
	if _, err := np.Trend(9); err == nil {
		t.Error("bad sensor should fail")
	}
}

func TestParseMultiLaneConcurrentIntervals(t *testing.T) {
	clk := vclock.NewVirtualClock()
	tr, _ := trace.NewTracer(trace.Config{Clock: clk})
	l1, l2 := tr.NewLane(), tr.NewLane()
	f := tr.RegisterFunc("worker")
	// Two lanes execute worker concurrently 0..10 s: union is 10 s, not 20.
	l1.EnterAt(f, 0)
	l2.EnterAt(f, 2*time.Second)
	_ = l1.ExitAt(f, 8*time.Second)
	_ = l2.ExitAt(f, 10*time.Second)
	np, err := Parse(tr.Finish(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, ok := np.Function("worker")
	if !ok {
		t.Fatal("worker missing")
	}
	if w.TotalTime != 10*time.Second {
		t.Errorf("union total = %v, want 10s", w.TotalTime)
	}
	if w.Calls != 2 {
		t.Errorf("calls = %d", w.Calls)
	}
}

func TestParseRecursionUnion(t *testing.T) {
	clk := vclock.NewVirtualClock()
	tr, _ := trace.NewTracer(trace.Config{Clock: clk})
	lane := tr.NewLane()
	f := tr.RegisterFunc("fib")
	lane.EnterAt(f, 0)
	lane.EnterAt(f, time.Second)
	_ = lane.ExitAt(f, 2*time.Second)
	_ = lane.ExitAt(f, 4*time.Second)
	np, err := Parse(tr.Finish(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := np.Function("fib")
	if fp.TotalTime != 4*time.Second {
		t.Errorf("recursive union = %v, want 4s (not 5)", fp.TotalTime)
	}
}

func TestParseDanglingFrame(t *testing.T) {
	clk := vclock.NewVirtualClock()
	tr, _ := trace.NewTracer(trace.Config{Clock: clk})
	lane := tr.NewLane()
	f := tr.RegisterFunc("crashed")
	lane.EnterAt(f, 0)
	tr.SampleAt(0, 40, 5*time.Second) // extends trace duration
	np, err := Parse(tr.Finish(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := np.Function("crashed")
	if fp.TotalTime != 5*time.Second {
		t.Errorf("dangling total = %v", fp.TotalTime)
	}
}

func TestParseUnbalancedExitFails(t *testing.T) {
	bad := &trace.Trace{Sym: trace.NewSymTab(), Events: []trace.Event{
		{Kind: trace.KindExit, FuncID: 0},
	}}
	bad.Sym.Register("f")
	if _, err := Parse(bad, Options{}); err == nil {
		t.Error("exit with empty stack should fail")
	}
	bad2 := &trace.Trace{Sym: trace.NewSymTab(), Events: []trace.Event{
		{Kind: trace.KindEnter, FuncID: 0},
		{Kind: trace.KindExit, FuncID: 1, TS: time.Second},
	}}
	bad2.Sym.Register("f")
	bad2.Sym.Register("g")
	if _, err := Parse(bad2, Options{}); err == nil {
		t.Error("mismatched exit should fail")
	}
}

func TestParseNilTrace(t *testing.T) {
	if _, err := Parse(nil, Options{}); err == nil {
		t.Error("nil trace should fail")
	}
}

func TestParseDropAccounting(t *testing.T) {
	tr := &trace.Trace{Sym: trace.NewSymTab(), Events: []trace.Event{
		{Kind: trace.KindDrop, Aux: 7},
		{Kind: trace.KindDrop, Aux: 3, TS: time.Second},
	}}
	np, err := Parse(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if np.DroppedEvents != 10 {
		t.Errorf("drops = %d", np.DroppedEvents)
	}
}

func TestParseAll(t *testing.T) {
	tr1 := microDTrace(t)
	tr2 := microDTrace(t)
	tr2.NodeID = 1
	p, err := ParseAll([]*trace.Trace{tr1, tr2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 2 || p.Nodes[1].NodeID != 1 {
		t.Errorf("nodes: %+v", len(p.Nodes))
	}
	if _, err := ParseAll(nil, Options{}); err == nil {
		t.Error("no traces should fail")
	}
}

func TestSensorMarkerParsing(t *testing.T) {
	cases := []struct {
		in    string
		id    int
		label string
		ok    bool
	}{
		{"sensor:0:CPU 0 Core", 0, "CPU 0 Core", true},
		{"sensor:12:A:B:C", 12, "A:B:C", true},
		{"sensor:x:bad", 0, "", false},
		{"sensor:-1:neg", 0, "", false},
		{"sensor:", 0, "", false},
		{"other:0:x", 0, "", false},
	}
	for _, c := range cases {
		id, label, ok := parseSensorMarker(c.in)
		if ok != c.ok || (ok && (id != c.id || label != c.label)) {
			t.Errorf("parseSensorMarker(%q) = %d,%q,%v", c.in, id, label, ok)
		}
	}
}

func TestHealthMarkerParsing(t *testing.T) {
	cases := []struct {
		in    string
		id    int
		state string
		ok    bool
	}{
		{"sensor-health:0:quarantined", 0, "quarantined", true},
		{"sensor-health:3:recovered", 3, "recovered", true},
		{"sensor-health:x:bad", 0, "", false},
		{"sensor-health:-1:neg", 0, "", false},
		{"sensor-health:2:", 0, "", false},
		{"sensor-health:", 0, "", false},
		{"sensor:2:label", 0, "", false},
	}
	for _, c := range cases {
		id, state, ok := parseHealthMarker(c.in)
		if ok != c.ok || (ok && (id != c.id || state != c.state)) {
			t.Errorf("parseHealthMarker(%q) = %d,%q,%v", c.in, id, state, ok)
		}
	}
}

// TestHealthEventsInProfile feeds tempd-style degraded-mode markers through
// Parse and expects an ordered per-sensor transition timeline annotating
// the sample gap.
func TestHealthEventsInProfile(t *testing.T) {
	clk := vclock.NewVirtualClock()
	tr, _ := trace.NewTracer(trace.Config{Clock: clk})
	tr.MarkerAt("sensor:0:CPU Core", 0)
	tr.SampleAt(0, 41, 250*time.Millisecond)
	tr.MarkerAt("sensor-health:0:suspect", 500*time.Millisecond)
	tr.MarkerAt("sensor-health:0:quarantined", 750*time.Millisecond)
	tr.MarkerAt("sensor-health:0:recovered", 2*time.Second)
	tr.SampleAt(0, 44, 2250*time.Millisecond)
	full := tr.Finish()
	full.Truncated = true // simulate a salvaged torn-tail trace
	np, err := Parse(full, Options{Unit: Celsius})
	if err != nil {
		t.Fatal(err)
	}
	if !np.Truncated {
		t.Error("profile must surface the trace's Truncated flag")
	}
	hs := sensorHealth(np, 0)
	if len(hs) != 3 {
		t.Fatalf("health events = %+v, want 3", hs)
	}
	wantStates := []string{"suspect", "quarantined", "recovered"}
	for i, h := range hs {
		if h.State != wantStates[i] || h.SensorID != 0 {
			t.Errorf("event %d = %+v, want state %q", i, h, wantStates[i])
		}
	}
	if hs[0].TS != 500*time.Millisecond || hs[2].TS != 2*time.Second {
		t.Errorf("health event timestamps wrong: %+v", hs)
	}
	if len(sensorHealth(np, 1)) != 0 {
		t.Error("no events expected for sensor 1")
	}
}

func TestSensorNameFallback(t *testing.T) {
	tr := &trace.Trace{Sym: trace.NewSymTab(), Events: []trace.Event{
		{Kind: trace.KindSample, SensorID: 1, ValueC: 40},
	}}
	np, err := Parse(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(np.SensorNames) != 2 || np.SensorNames[0] != "sensor1" || np.SensorNames[1] != "sensor2" {
		t.Errorf("fallback names = %v", np.SensorNames)
	}
}

func TestDetectIntervalFallback(t *testing.T) {
	if got := detectInterval(nil, nil); got != 250*time.Millisecond {
		t.Errorf("empty fallback = %v", got)
	}
	one := [][]Sample{{{TS: 0, Value: 1}}}
	if got := detectInterval(one, nil); got != 250*time.Millisecond {
		t.Errorf("single-sample fallback = %v", got)
	}
	same := [][]Sample{{{TS: time.Second}, {TS: time.Second}}}
	if got := detectInterval(same, nil); got != 250*time.Millisecond {
		t.Errorf("zero-gap fallback = %v", got)
	}
}

func TestDetectIntervalIgnoresQuarantineGaps(t *testing.T) {
	// Sensor 0 samples every 100 ms at first, then spends most of the
	// trace quarantined, resurfacing only for lone probe readings 2 s
	// apart. The quarantine-era gaps outnumber the healthy ones, so
	// without health context they capture the median.
	s := []Sample{
		{TS: 0}, {TS: 100 * time.Millisecond}, {TS: 200 * time.Millisecond},
		{TS: 2200 * time.Millisecond}, {TS: 4200 * time.Millisecond}, {TS: 6200 * time.Millisecond},
	}
	samples := [][]Sample{s}
	health := []HealthEvent{
		{TS: 250 * time.Millisecond, SensorID: 0, State: "quarantined"},
		{TS: 1200 * time.Millisecond, SensorID: 0, State: "probing"},
		{TS: 6150 * time.Millisecond, SensorID: 0, State: "recovered"},
	}
	if got := detectInterval(samples, health); got != 100*time.Millisecond {
		t.Errorf("with quarantine context = %v, want 100ms", got)
	}
	// Without any health context the 2 s probe gaps win the median.
	if got := detectInterval(samples, nil); got != 2*time.Second {
		t.Errorf("without health context = %v, want 2s", got)
	}
	// A different sensor's quarantine must not mask the gaps.
	other := []HealthEvent{
		{TS: 250 * time.Millisecond, SensorID: 1, State: "quarantined"},
		{TS: 6150 * time.Millisecond, SensorID: 1, State: "recovered"},
	}
	if got := detectInterval(samples, other); got != 2*time.Second {
		t.Errorf("unrelated sensor's quarantine changed the result: %v", got)
	}
	// A quarantine that never recovers extends to the end of the trace.
	openEnded := []HealthEvent{{TS: 250 * time.Millisecond, SensorID: 0, State: "quarantined"}}
	if got := detectInterval(samples, openEnded); got != 100*time.Millisecond {
		t.Errorf("open-ended quarantine = %v, want 100ms", got)
	}
}

func TestSignificanceRequiresSamples(t *testing.T) {
	clk := vclock.NewVirtualClock()
	tr, _ := trace.NewTracer(trace.Config{Clock: clk})
	lane := tr.NewLane()
	f := tr.RegisterFunc("lonely")
	lane.EnterAt(f, 0)
	_ = lane.ExitAt(f, 10*time.Second)
	// No samples at all in the trace.
	np, err := Parse(tr.Finish(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := np.Function("lonely")
	if fp.Significant {
		t.Error("function without any samples cannot be significant")
	}
}

var _ = strings.Contains // keep strings import if assertions change

func BenchmarkParseMicroD(b *testing.B) {
	clk := vclock.NewVirtualClock()
	tr, _ := trace.NewTracer(trace.Config{Clock: clk, LaneBufferCap: 1 << 20})
	tr.MarkerAt("sensor:0:CPU 0 Core", 0)
	lane := tr.NewLane()
	f := tr.RegisterFunc("f")
	for i := 0; i < 5000; i++ {
		ts := time.Duration(i) * time.Millisecond
		lane.EnterAt(f, ts)
		_ = lane.ExitAt(f, ts+500*time.Microsecond)
		if i%250 == 0 {
			tr.SampleAt(0, 35+float64(i)*0.001, ts)
		}
	}
	trc := tr.Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(trc, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeIntervals(b *testing.B) {
	ivs := make([]Interval, 1000)
	for i := range ivs {
		start := time.Duration(i%97) * time.Second
		ivs[i] = Interval{Start: start, End: start + time.Duration(i%13+1)*time.Second}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeIntervals(ivs)
	}
}

// sensorHealth filters np.HealthEvents to one sensor, in time order.
func sensorHealth(np *NodeProfile, sensor int) []HealthEvent {
	var out []HealthEvent
	for _, h := range np.HealthEvents {
		if h.SensorID == sensor {
			out = append(out, h)
		}
	}
	return out
}
