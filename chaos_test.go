package tempest

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tempest/internal/faultinject"
	"tempest/internal/parser"
	"tempest/internal/sensors"
	"tempest/internal/tempd"
	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// chaosProvider serves a fixed sensor slice.
type chaosProvider struct{ ss []sensors.Sensor }

func (p *chaosProvider) Sensors() ([]sensors.Sensor, error) { return p.ss, nil }

// chaosOutcome is everything observable from one seeded chaos run, for the
// same-seed reproducibility check.
type chaosOutcome struct {
	events    []trace.Event
	truncated bool
	health    []string
	samples   []int // salvaged sample count per sensor
}

// runChaosScenario executes the full degraded pipeline under one seed:
// three sensors with one suffering a dropout, resilient wrappers
// quarantining and recovering it, tempd driven on a virtual clock writing
// segmented trace data through a writer that dies mid-flush (the torn
// tail), salvage via ReadTrace's recovery mode, and parsing into a
// health-annotated profile.
func runChaosScenario(t *testing.T, seed int64) chaosOutcome {
	t.Helper()
	plan := faultinject.NewPlan(seed)

	noSleep := func(time.Duration) {}
	mkSensor := func(i int) sensors.Sensor {
		calls := 0
		return &sensors.FuncSensor{
			SensorName:  "sim/t" + string(rune('0'+i)),
			SensorLabel: "die " + string(rune('0'+i)),
			Read: func() (float64, error) {
				calls++
				return 40 + float64(i) + 0.25*float64(calls), nil
			},
		}
	}
	// Sensor 1 drops out for 12 hardware reads after its 8th.
	flaky := faultinject.NewFaultySensor(mkSensor(1), plan, faultinject.SensorFaults{
		DropoutAfter: 8,
		DropoutLen:   12,
		Sleep:        noSleep,
	})
	reg := sensors.NewRegistry(&chaosProvider{ss: []sensors.Sensor{mkSensor(0), flaky, mkSensor(2)}})
	if err := reg.Discover(); err != nil {
		t.Fatal(err)
	}
	reg.WrapResilient(sensors.ResilientConfig{
		MaxRetries:      0,
		QuarantineAfter: 3,
		ProbeEvery:      4,
		Sleep:           noSleep,
	})

	clk := vclock.NewVirtualClock()
	tr, err := trace.NewTracer(trace.Config{Clock: clk, NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := tempd.New(tempd.Config{Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}

	// The "disk" dies after 600 bytes mid-flush: the buffer keeps exactly
	// the prefix that made it out — a SIGKILLed tempd's trace file.
	var disk bytes.Buffer
	fw := faultinject.NewFaultyWriter(&disk, plan, faultinject.WriterFaults{FailAfterBytes: 600})
	tw, err := trace.NewWriter(fw, tr.NodeID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	diskDead := false
	for round := 1; round <= 40; round++ {
		clk.Advance(250 * time.Millisecond) // tempd.Config's default 4 Hz
		_ = d.SampleOnce()                  // failures expected mid-dropout
		if round%8 == 0 && !diskDead {
			ev, sym := tr.Drain()
			if err := tw.Flush(ev, sym); err != nil {
				diskDead = true
			}
		}
	}
	if !diskDead {
		t.Fatalf("fault plan never tore the trace (wrote %d bytes)", fw.Written())
	}

	// Salvage the torn file.
	salvaged, err := trace.ReadTrace(bytes.NewReader(disk.Bytes()))
	if err != nil {
		t.Fatalf("recovery mode failed on torn tail: %v", err)
	}
	np, err := parser.Parse(salvaged, parser.Options{Unit: parser.Celsius})
	if err != nil {
		t.Fatalf("parsing salvaged trace: %v", err)
	}

	out := chaosOutcome{
		events:    salvaged.Events,
		truncated: salvaged.Truncated,
		samples:   make([]int, len(np.Samples)),
	}
	for i, s := range np.Samples {
		out.samples[i] = len(s)
	}
	for _, h := range np.HealthEvents {
		out.health = append(out.health, h.State)
	}
	if !np.Truncated {
		t.Error("profile should carry the torn-tail truncation flag")
	}

	// Degraded but alive: the daemon kept counting what the disk lost.
	per := d.FailuresBySensor()
	if per[0] != 0 || per[2] != 0 || per[1] == 0 {
		t.Errorf("per-sensor failures = %v, want only sensor 1 failing", per)
	}
	if hs := d.Health(); hs[1].State != sensors.StateHealthy {
		t.Errorf("dropout sensor should have recovered, state = %v", hs[1].State)
	}
	return out
}

// TestChaosScenarioEndToEnd is the acceptance scenario: sensor dropout +
// torn trace tail under a seeded fault plan. The run must complete with a
// salvaged prefix and a quarantine-annotated profile.
func TestChaosScenarioEndToEnd(t *testing.T) {
	out := runChaosScenario(t, 1234)

	if !out.truncated {
		t.Error("torn tail must flag the salvaged trace truncated")
	}
	if len(out.events) == 0 {
		t.Fatal("salvage recovered nothing")
	}
	// The healthy sensors have more salvaged samples than the dropout one.
	if !(out.samples[0] > 0 && out.samples[0] == out.samples[2]) {
		t.Errorf("healthy sensor samples = %v", out.samples)
	}
	if out.samples[1] >= out.samples[0] {
		t.Errorf("dropout sensor has %d samples, healthy %d: no gap?", out.samples[1], out.samples[0])
	}
	// The profile is annotated with the quarantine episode.
	joined := strings.Join(out.health, ",")
	if !strings.Contains(joined, "quarantined") {
		t.Errorf("health annotations %v lack a quarantine", out.health)
	}
}

// TestChaosScenarioSameSeedReproduces runs the scenario twice with one
// seed and once with another: same seed → byte-for-byte identical salvage
// and annotations; different seed may differ (and at minimum must also
// complete).
func TestChaosScenarioSameSeedReproduces(t *testing.T) {
	a := runChaosScenario(t, 99)
	b := runChaosScenario(t, 99)
	if len(a.events) != len(b.events) {
		t.Fatalf("same seed salvaged %d vs %d events", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("same seed, event %d differs: %+v vs %+v", i, a.events[i], b.events[i])
		}
	}
	if strings.Join(a.health, ",") != strings.Join(b.health, ",") {
		t.Fatalf("same seed, health annotations differ: %v vs %v", a.health, b.health)
	}
	if a.truncated != b.truncated {
		t.Fatalf("same seed, outcomes differ: %+v vs %+v", a, b)
	}
	// A different seed still completes end-to-end.
	_ = runChaosScenario(t, 7)
}
