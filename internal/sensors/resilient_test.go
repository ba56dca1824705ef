package sensors

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// scriptSensor returns queued outcomes in order, then repeats the last.
type scriptSensor struct {
	name  string
	vals  []float64
	errs  []error
	calls int
}

func (s *scriptSensor) Name() string  { return s.name }
func (s *scriptSensor) Label() string { return s.name }
func (s *scriptSensor) ReadC() (float64, error) {
	i := s.calls
	if i >= len(s.vals) {
		i = len(s.vals) - 1
	}
	s.calls++
	if s.errs[i] != nil {
		return 0, s.errs[i]
	}
	return s.vals[i], nil
}

// script builds a scriptSensor from a compact spec: a float is a good
// reading, nil is a read error.
func script(outcomes ...any) *scriptSensor {
	s := &scriptSensor{name: "test/script"}
	for _, o := range outcomes {
		switch v := o.(type) {
		case float64:
			s.vals = append(s.vals, v)
			s.errs = append(s.errs, nil)
		case int:
			s.vals = append(s.vals, float64(v))
			s.errs = append(s.errs, nil)
		case nil:
			s.vals = append(s.vals, 0)
			s.errs = append(s.errs, errors.New("read failed"))
		default:
			panic(fmt.Sprintf("bad outcome %T", o))
		}
	}
	return s
}

func noSleep(time.Duration) {}

func TestResilientRetrySucceedsWithinBudget(t *testing.T) {
	// Two failures then success: with MaxRetries=2 one ReadC absorbs both.
	s := script(nil, nil, 55.0)
	r := NewResilient(s, ResilientConfig{MaxRetries: 2, Sleep: noSleep})
	v, err := r.ReadC()
	if err != nil || v != 55 {
		t.Fatalf("ReadC = %v, %v; want 55", v, err)
	}
	if s.calls != 3 {
		t.Errorf("raw reads = %d, want 3 (1 + 2 retries)", s.calls)
	}
	if got := r.Health(); got != StateHealthy {
		t.Errorf("health = %v, want healthy", got)
	}
}

func TestResilientBackoffSchedule(t *testing.T) {
	var slept []time.Duration
	s := script(nil, nil, nil, nil, 40.0)
	r := NewResilient(s, ResilientConfig{
		MaxRetries:  4,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	if _, err := r.ReadC(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v (doubling, capped)", i, slept[i], want[i])
		}
	}
}

func TestResilientStateMachineToQuarantineAndBack(t *testing.T) {
	// Persistent failure, then the sensor comes back.
	fail := true
	rawCalls, probes := 0, 0
	var r *Resilient
	fs := &FuncSensor{SensorName: "test/flappy", Read: func() (float64, error) {
		rawCalls++
		if r.Health() == StateProbing {
			probes++
		}
		if fail {
			return 0, errors.New("bus error")
		}
		return 50, nil
	}}
	r = NewResilient(fs, ResilientConfig{
		MaxRetries:      1,
		QuarantineAfter: 2,
		ProbeEvery:      3,
		Sleep:           noSleep,
	})

	// Failure 1: healthy → suspect.
	if _, err := r.ReadC(); err == nil {
		t.Fatal("want error")
	}
	if r.Health() != StateSuspect {
		t.Fatalf("after 1 failure: %v", r.Health())
	}
	// Failure 2: suspect → quarantined.
	if _, err := r.ReadC(); err == nil {
		t.Fatal("want error")
	}
	if r.Health() != StateQuarantined {
		t.Fatalf("after 2 failures: %v", r.Health())
	}

	// Quarantined reads fail fast with ErrQuarantined, no hardware touch.
	rawBefore := rawCalls
	for i := 0; i < 2; i++ {
		if _, err := r.ReadC(); !errors.Is(err, ErrQuarantined) {
			t.Fatalf("quarantined read %d: %v", i, err)
		}
	}
	if rawCalls != rawBefore {
		t.Error("quarantined reads must not touch the sensor")
	}

	// Third attempt probes; sensor still down → back to quarantine.
	if _, err := r.ReadC(); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("failed probe should report quarantined: %v", err)
	}
	if r.Health() != StateQuarantined {
		t.Fatalf("after failed probe: %v", r.Health())
	}

	// Sensor recovers; skip to the next probe slot.
	fail = false
	for i := 0; i < 2; i++ {
		_, _ = r.ReadC()
	}
	v, err := r.ReadC() // probe
	if err != nil || v != 50 {
		t.Fatalf("successful probe = %v, %v", v, err)
	}
	if r.Health() != StateRecovered {
		t.Fatalf("after successful probe: %v", r.Health())
	}
	if v, err := r.ReadC(); err != nil || v != 50 {
		t.Fatalf("post-recovery read = %v, %v", v, err)
	} else if r.Health() != StateHealthy {
		t.Fatalf("after recovered read: %v", r.Health())
	}

	// Probing shows only while a probe reads the hardware.
	if probes != 2 {
		t.Errorf("%d hardware reads while probing, want the 2 probes", probes)
	}
}

func TestResilientPlausibilityBounds(t *testing.T) {
	s := script(300.0, -80.0, math.NaN(), 60.0)
	r := NewResilient(s, ResilientConfig{MaxRetries: 0, QuarantineAfter: 10, Sleep: noSleep})
	for i := 0; i < 3; i++ {
		if _, err := r.ReadC(); !errors.Is(err, ErrImplausible) {
			t.Fatalf("read %d: want ErrImplausible, got %v", i, err)
		}
	}
	if v, err := r.ReadC(); err != nil || v != 60 {
		t.Fatalf("plausible read = %v, %v", v, err)
	}
}

func TestResilientStuckDetection(t *testing.T) {
	s := script(50.0, 50.0, 50.0, 50.0, 51.0)
	r := NewResilient(s, ResilientConfig{MaxRetries: 0, StuckLimit: 3, QuarantineAfter: 10, Sleep: noSleep})
	for i := 0; i < 3; i++ {
		if _, err := r.ReadC(); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	// Fourth identical reading crosses StuckLimit.
	if _, err := r.ReadC(); !errors.Is(err, ErrStuck) {
		t.Fatalf("want ErrStuck, got %v", err)
	}
	if v, err := r.ReadC(); err != nil || v != 51 {
		t.Fatalf("fresh value after stuck = %v, %v", v, err)
	}
}

func TestRegistryWrapResilientAndHealth(t *testing.T) {
	good := &FuncSensor{SensorName: "a/good", Read: func() (float64, error) { return 45, nil }}
	bad := &FuncSensor{SensorName: "b/bad", Read: func() (float64, error) { return 0, errors.New("dead") }}
	reg := NewRegistry(staticProvider{good, bad})
	if err := reg.Discover(); err != nil {
		t.Fatal(err)
	}
	reg.WrapResilient(ResilientConfig{MaxRetries: 0, QuarantineAfter: 2, Sleep: noSleep})

	for i := 0; i < 3; i++ {
		vals, _ := reg.ReadAll()
		if vals[0] != 45 {
			t.Fatalf("good sensor slot = %v", vals[0])
		}
		if !math.IsNaN(vals[1]) {
			t.Fatalf("bad sensor slot = %v, want NaN", vals[1])
		}
	}
	h := reg.Health()
	if len(h) != 2 || h[0].State != StateHealthy || h[1].State != StateQuarantined {
		t.Fatalf("health = %+v", h)
	}
	if h[1].Index != 1 || h[1].Name != "b/bad" {
		t.Fatalf("health row = %+v", h[1])
	}

	// Re-wrapping resets state and does not double-wrap.
	reg.WrapResilient(ResilientConfig{Sleep: noSleep})
	if reg.Health()[1].State != StateHealthy {
		t.Error("re-wrap should reset health state")
	}
	if _, ok := reg.Sensors()[1].(*Resilient); !ok {
		t.Error("sensor should be a Resilient")
	}
	if inner := reg.Sensors()[1].(*Resilient).Sensor; inner != Sensor(bad) {
		t.Errorf("double-wrapped: inner sensor is %T", inner)
	}
}

// staticProvider serves a fixed sensor list.
type staticProvider []Sensor

func (p staticProvider) Sensors() ([]Sensor, error) { return p, nil }

func TestHealthStringer(t *testing.T) {
	for h, want := range map[Health]string{
		StateHealthy:     "healthy",
		StateSuspect:     "suspect",
		StateQuarantined: "quarantined",
		StateProbing:     "probing",
		StateRecovered:   "recovered",
		Health(42):       "Health(42)",
	} {
		if h.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(h), h.String(), want)
		}
	}
}
