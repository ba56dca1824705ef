package sensors

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func constSensor(name string, v float64) *FuncSensor {
	return &FuncSensor{
		SensorName:  name,
		SensorLabel: name + " label",
		Read:        func() (float64, error) { return v, nil },
	}
}

func failingSensor(name string) *FuncSensor {
	return &FuncSensor{
		SensorName:  name,
		SensorLabel: name,
		Read:        func() (float64, error) { return 0, errors.New("dead chip") },
	}
}

type sliceProvider struct{ ss []Sensor }

func (p *sliceProvider) Sensors() ([]Sensor, error) {
	if len(p.ss) == 0 {
		return nil, ErrNoSensors
	}
	return p.ss, nil
}

type errProvider struct{}

func (errProvider) Sensors() ([]Sensor, error) { return nil, errors.New("bus fault") }

func TestFuncSensor(t *testing.T) {
	s := constSensor("a/t1", 42)
	if s.Name() != "a/t1" || s.Label() != "a/t1 label" {
		t.Error("name/label wrong")
	}
	v, err := s.ReadC()
	if err != nil || v != 42 {
		t.Errorf("ReadC = %v, %v", v, err)
	}
	empty := &FuncSensor{SensorName: "x"}
	if _, err := empty.ReadC(); err == nil {
		t.Error("nil read func should error")
	}
}

func TestQuantized(t *testing.T) {
	base := constSensor("a/t1", 39.4)
	q := &Quantized{Sensor: base, StepC: 1}
	v, err := q.ReadC()
	if err != nil || v != 39 {
		t.Errorf("quantized = %v, %v; want 39", v, err)
	}
	q.StepC = 0.5
	if v, _ := q.ReadC(); v != 39.5 {
		t.Errorf("half-step quantized = %v, want 39.5", v)
	}
	q.StepC = 0
	if v, _ := q.ReadC(); v != 39.4 {
		t.Errorf("unquantized = %v, want 39.4", v)
	}
	qf := &Quantized{Sensor: failingSensor("f/t1"), StepC: 1}
	if _, err := qf.ReadC(); err == nil {
		t.Error("error should propagate through Quantized")
	}
}

// Property: quantised readings differ from raw by at most step/2 and are
// exact multiples of the step.
func TestQuantizedProperty(t *testing.T) {
	f := func(raw float64, stepRaw uint8) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		raw = math.Mod(raw, 500)
		step := 0.25 * float64(stepRaw%8+1)
		q := &Quantized{Sensor: constSensor("x/t", raw), StepC: step}
		v, err := q.ReadC()
		if err != nil {
			return false
		}
		if math.Abs(v-raw) > step/2+1e-9 {
			return false
		}
		_, frac := math.Modf(math.Abs(v/step) + 1e-9)
		return frac < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegistryDiscoverSortsAndAggregates(t *testing.T) {
	r := NewRegistry(
		&sliceProvider{ss: []Sensor{constSensor("b/t2", 2), constSensor("a/t1", 1)}},
		&sliceProvider{}, // empty: skipped via ErrNoSensors
		&sliceProvider{ss: []Sensor{constSensor("a/t0", 0)}},
	)
	if err := r.Discover(); err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, s := range r.Sensors() {
		names = append(names, s.Name())
	}
	want := []string{"a/t0", "a/t1", "b/t2"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", names, want)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRegistryDiscoverErrors(t *testing.T) {
	r := NewRegistry(&sliceProvider{})
	if err := r.Discover(); !errors.Is(err, ErrNoSensors) {
		t.Errorf("empty registry err = %v, want ErrNoSensors", err)
	}
	r2 := NewRegistry(errProvider{})
	if err := r2.Discover(); err == nil || errors.Is(err, ErrNoSensors) {
		t.Errorf("provider failure should propagate, got %v", err)
	}
}

func TestReadAllPartialFailure(t *testing.T) {
	r := NewRegistry(&sliceProvider{ss: []Sensor{
		constSensor("a/t1", 30),
		failingSensor("b/t1"),
		constSensor("c/t1", 50),
	}})
	if err := r.Discover(); err != nil {
		t.Fatal(err)
	}
	vals, err := r.ReadAll()
	if err == nil {
		t.Error("ReadAll should report the failing sensor")
	}
	if vals[0] != 30 || vals[2] != 50 {
		t.Errorf("healthy sensors wrong: %v", vals)
	}
	if !math.IsNaN(vals[1]) {
		t.Errorf("failed slot = %v, want NaN", vals[1])
	}
}

func TestReadAllHealthy(t *testing.T) {
	r := NewRegistry(&sliceProvider{ss: []Sensor{constSensor("a/t1", 30)}})
	if err := r.Discover(); err != nil {
		t.Fatal(err)
	}
	vals, err := r.ReadAll()
	if err != nil || len(vals) != 1 || vals[0] != 30 {
		t.Errorf("ReadAll = %v, %v", vals, err)
	}
}
