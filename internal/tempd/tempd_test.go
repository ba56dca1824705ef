package tempd

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"tempest/internal/sensors"
	"tempest/internal/thermal"
	"tempest/internal/trace"
	"tempest/internal/vclock"
)

type sliceProvider struct{ ss []sensors.Sensor }

func (p *sliceProvider) Sensors() ([]sensors.Sensor, error) {
	if len(p.ss) == 0 {
		return nil, sensors.ErrNoSensors
	}
	return p.ss, nil
}

func constSensor(name string, v float64) sensors.Sensor {
	return &sensors.FuncSensor{
		SensorName:  name,
		SensorLabel: "label " + name,
		Read:        func() (float64, error) { return v, nil },
	}
}

func testSetup(t *testing.T, ss ...sensors.Sensor) (*Daemon, *trace.Tracer, *vclock.VirtualClock) {
	t.Helper()
	reg := sensors.NewRegistry(&sliceProvider{ss: ss})
	if err := reg.Discover(); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtualClock()
	tr, err := trace.NewTracer(trace.Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	return d, tr, clk
}

func TestNewValidation(t *testing.T) {
	reg := sensors.NewRegistry(&sliceProvider{ss: []sensors.Sensor{constSensor("a/t1", 30)}})
	if err := reg.Discover(); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtualClock()
	tr, _ := trace.NewTracer(trace.Config{Clock: clk})
	if _, err := New(Config{Tracer: tr}); err == nil {
		t.Error("missing registry should fail")
	}
	if _, err := New(Config{Registry: reg}); err == nil {
		t.Error("missing tracer should fail")
	}
	for _, rate := range []float64{-4, math.NaN(), math.Inf(1), math.Inf(-1), 1e12} { // 1e12 Hz: 0 ns interval
		if _, err := New(Config{Registry: reg, Tracer: tr, RateHz: rate}); err == nil {
			t.Errorf("rate %v should fail", rate)
		}
	}
	empty := sensors.NewRegistry()
	if _, err := New(Config{Registry: empty, Tracer: tr}); err == nil {
		t.Error("empty registry should fail")
	}
}

func TestDefaultRate(t *testing.T) {
	d, _, _ := testSetup(t, constSensor("a/t1", 30))
	if d.interval != 250*time.Millisecond {
		t.Errorf("interval = %v, want 250ms (4 Hz)", d.interval)
	}
}

func TestCustomRate(t *testing.T) {
	reg := sensors.NewRegistry(&sliceProvider{ss: []sensors.Sensor{constSensor("a/t1", 30)}})
	_ = reg.Discover()
	tr, _ := trace.NewTracer(trace.Config{Clock: vclock.NewVirtualClock()})
	d, err := New(Config{Registry: reg, Tracer: tr, RateHz: 16})
	if err != nil {
		t.Fatal(err)
	}
	if d.interval != 62500*time.Microsecond {
		t.Errorf("interval = %v, want 62.5ms", d.interval)
	}
}

func TestSampleOnceRecordsPerSensor(t *testing.T) {
	d, tr, clk := testSetup(t, constSensor("a/t1", 39), constSensor("b/t1", 34))
	clk.Advance(time.Second)
	if err := d.SampleOnce(); err != nil {
		t.Fatal(err)
	}
	if d.Samples() != 2 {
		t.Errorf("samples = %d, want 2", d.Samples())
	}
	evs, sym := tr.Snapshot()
	var samples, markers int
	for _, e := range evs {
		switch e.Kind {
		case trace.KindSample:
			samples++
			if e.TS != time.Second {
				t.Errorf("sample TS = %v", e.TS)
			}
		case trace.KindMarker:
			markers++
			name, _ := sym.Name(e.FuncID)
			if !strings.HasPrefix(name, "sensor:") {
				t.Errorf("unexpected marker %q", name)
			}
		}
	}
	if samples != 2 || markers != 2 {
		t.Errorf("samples/markers = %d/%d, want 2/2", samples, markers)
	}
}

func TestSensorAnnouncementOnce(t *testing.T) {
	d, tr, _ := testSetup(t, constSensor("a/t1", 39))
	_ = d.SampleOnce()
	_ = d.SampleOnce()
	evs, _ := tr.Snapshot()
	markers := 0
	for _, e := range evs {
		if e.Kind == trace.KindMarker {
			markers++
		}
	}
	if markers != 1 {
		t.Errorf("markers = %d, want exactly 1 announcement", markers)
	}
}

func TestSampleOncePartialFailure(t *testing.T) {
	bad := &sensors.FuncSensor{
		SensorName:  "dead/t1",
		SensorLabel: "dead",
		Read:        func() (float64, error) { return 0, errors.New("i2c timeout") },
	}
	d, _, _ := testSetup(t, constSensor("a/t1", 39), bad)
	err := d.SampleOnce()
	if err == nil {
		t.Error("expected aggregated failure")
	}
	if d.Samples() != 1 || d.Failures() != 1 {
		t.Errorf("samples/failures = %d/%d, want 1/1", d.Samples(), d.Failures())
	}
}

func TestFailuresBySensorIndex(t *testing.T) {
	flaky := &sensors.FuncSensor{
		SensorName:  "b/t1",
		SensorLabel: "flaky",
		Read:        func() (float64, error) { return 0, errors.New("bus glitch") },
	}
	d, _, _ := testSetup(t, constSensor("a/t1", 39), flaky, constSensor("c/t1", 41))
	for i := 0; i < 3; i++ {
		_ = d.SampleOnce()
	}
	per := d.FailuresBySensor()
	if want := []uint64{0, 3, 0}; len(per) != 3 || per[0] != want[0] || per[1] != want[1] || per[2] != want[2] {
		t.Errorf("FailuresBySensor = %v, want %v", per, want)
	}
	if d.Failures() != 3 {
		t.Errorf("Failures = %d, want 3", d.Failures())
	}
}

// TestHealthTransitionMarkers quarantines a sensor mid-run and expects the
// daemon to drop sensor-health markers into the trace at each transition,
// so the parser can annotate the resulting sample gap.
func TestHealthTransitionMarkers(t *testing.T) {
	calls := 0
	flaky := &sensors.FuncSensor{
		SensorName:  "b/t1",
		SensorLabel: "flaky",
		Read: func() (float64, error) {
			calls++
			if calls > 2 {
				return 0, errors.New("link lost")
			}
			return 40, nil
		},
	}
	reg := sensors.NewRegistry(&sliceProvider{ss: []sensors.Sensor{constSensor("a/t1", 39), flaky}})
	if err := reg.Discover(); err != nil {
		t.Fatal(err)
	}
	reg.WrapResilient(sensors.ResilientConfig{
		MaxRetries:      0,
		QuarantineAfter: 2,
		ProbeEvery:      1000, // keep it quarantined for the test
		Sleep:           func(time.Duration) {},
	})
	clk := vclock.NewVirtualClock()
	tr, err := trace.NewTracer(trace.Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		clk.Advance(d.interval)
		_ = d.SampleOnce()
	}
	evs, sym := tr.Snapshot()
	var health []string
	for _, e := range evs {
		if e.Kind != trace.KindMarker {
			continue
		}
		name, _ := sym.Name(e.FuncID)
		if strings.HasPrefix(name, "sensor-health:") {
			health = append(health, name)
		}
	}
	want := []string{"sensor-health:1:suspect", "sensor-health:1:quarantined"}
	if len(health) != len(want) || health[0] != want[0] || health[1] != want[1] {
		t.Errorf("health markers = %v, want %v", health, want)
	}
	if hs := d.Health(); hs[1].State != sensors.StateQuarantined {
		t.Errorf("sensor 1 health = %v, want quarantined", hs[1].State)
	}
	// Quarantined rounds count as per-sensor failures (NaN slots).
	if per := d.FailuresBySensor(); per[1] == 0 {
		t.Errorf("FailuresBySensor = %v, want failures recorded for sensor 1", per)
	}
}

func TestStartStopRealTime(t *testing.T) {
	d, _, _ := testSetup(t, constSensor("a/t1", 39))
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Error("double start should fail")
	}
	if !d.running {
		t.Error("should be running")
	}
	time.Sleep(30 * time.Millisecond) // at least the immediate t=0 sample
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	if d.running {
		t.Error("should be stopped")
	}
	if err := d.Stop(); err == nil {
		t.Error("double stop should fail")
	}
	if d.Samples() == 0 {
		t.Error("no samples recorded while running")
	}
}

func TestRestartAfterStop(t *testing.T) {
	d, _, _ := testSetup(t, constSensor("a/t1", 39))
	for i := 0; i < 2; i++ {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		if err := d.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	if d.Samples() < 2 {
		t.Errorf("samples = %d across two runs", d.Samples())
	}
}

func TestBusyFractionUnderOnePercent(t *testing.T) {
	// §4.1: tempd used less than 1 % of CPU time. Our in-process sampler
	// against cheap simulated sensors must stay well under that bound at
	// 4 Hz over a real-time run.
	p := thermal.DefaultOpteronParams()
	cpu, err := thermal.NewCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	reg := sensors.NewRegistry(sensors.NewSimProvider(cpu, &mu, "n0"))
	if err := reg.Discover(); err != nil {
		t.Fatal(err)
	}
	tr, _ := trace.NewTracer(trace.Config{Clock: vclock.NewRealClock()})
	d, err := New(Config{Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond)
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	if d.Samples() == 0 {
		t.Fatal("no samples")
	}
	if bf := d.BusyFraction(); bf > 0.01 {
		t.Errorf("tempd busy fraction = %.4f, want < 0.01", bf)
	}
	if d.BusyTime() <= 0 {
		t.Error("BusyTime should be positive")
	}
}

func TestVirtualDriveDeterministic(t *testing.T) {
	// Simulation engines call SampleOnce at virtual boundaries; two
	// identical drives must produce identical traces.
	run := func() []trace.Event {
		p := thermal.DefaultOpteronParams()
		p.Seed = 42
		cpu, err := thermal.NewCPU(p)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		reg := sensors.NewRegistry(sensors.NewSimProvider(cpu, &mu, "n0"))
		if err := reg.Discover(); err != nil {
			t.Fatal(err)
		}
		clk := vclock.NewVirtualClock()
		tr, _ := trace.NewTracer(trace.Config{Clock: clk})
		d, err := New(Config{Registry: reg, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		_ = cpu.SetCoreUtilization(0, 1)
		for i := 0; i < 40; i++ {
			mu.Lock()
			_ = cpu.Step(d.interval)
			mu.Unlock()
			clk.Advance(d.interval)
			if err := d.SampleOnce(); err != nil {
				t.Fatal(err)
			}
		}
		evs, _ := tr.Snapshot()
		return evs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Temperature must rise across the burn.
	var first, last float64
	seen := false
	for _, e := range a {
		if e.Kind == trace.KindSample && e.SensorID == 0 {
			if !seen {
				first = e.ValueC
				seen = true
			}
			last = e.ValueC
		}
	}
	if !(last > first) {
		t.Errorf("burn not visible in samples: %v → %v", first, last)
	}
}

func BenchmarkSampleOnce(b *testing.B) {
	reg := sensors.NewRegistry(&sliceProvider{ss: []sensors.Sensor{
		constSensor("a/t1", 39), constSensor("a/t2", 34),
		constSensor("a/t3", 40), constSensor("a/t4", 35),
		constSensor("a/t5", 45), constSensor("a/t6", 39),
	}})
	if err := reg.Discover(); err != nil {
		b.Fatal(err)
	}
	tr, _ := trace.NewTracer(trace.Config{Clock: vclock.NewRealClock(), LaneBufferCap: 1 << 26})
	d, err := New(Config{Registry: reg, Tracer: tr})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.SampleOnce()
	}
}
