// Package sensors provides Tempest's hardware-sensor abstraction.
//
// The paper reads motherboard and CPU thermal sensors through the Linux
// LM-sensors package, observing 3 sensors on x86 boxes and up to 7 on
// PowerPC G5 (§3.4). This package exposes the same capability through a
// small Sensor interface with two interchangeable providers:
//
//   - HwmonProvider scans /sys/class/hwmon the way libsensors does, so on
//     a real Linux host Tempest reads genuine hardware sensors; and
//   - SimProvider reads the RC thermal model in internal/thermal, the
//     substitution used where no hardware sensors exist (see DESIGN.md).
//
// Readings are degrees Celsius. Quantisation mirrors real sensor chips,
// which report in coarse steps — the paper's tables show the resulting
// value grid (102.20 °F, 104.00 °F, 105.80 °F are consecutive whole °C).
package sensors

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// ErrNoSensors is returned by providers that found nothing to read.
var ErrNoSensors = errors.New("sensors: no sensors found")

// Sensor is one temperature measurement point.
type Sensor interface {
	// Name is a stable identifier, e.g. "hwmon0/temp1" or "sim/die0".
	Name() string
	// Label is the human-readable location, e.g. "CPU 0 Core".
	Label() string
	// ReadC returns the current temperature in °C.
	ReadC() (float64, error)
}

// Provider discovers sensors.
type Provider interface {
	// Sensors enumerates available sensors. Implementations return
	// ErrNoSensors when discovery succeeds but finds nothing.
	Sensors() ([]Sensor, error)
}

// FuncSensor adapts a closure into a Sensor; the simulated provider and
// tests are built on it.
type FuncSensor struct {
	SensorName  string
	SensorLabel string
	Read        func() (float64, error)
}

// Name implements Sensor.
func (f *FuncSensor) Name() string { return f.SensorName }

// Label implements Sensor.
func (f *FuncSensor) Label() string { return f.SensorLabel }

// ReadC implements Sensor.
func (f *FuncSensor) ReadC() (float64, error) {
	if f.Read == nil {
		return 0, fmt.Errorf("sensors: %s has no read function", f.SensorName)
	}
	return f.Read()
}

// Quantized wraps a sensor so readings snap to the chip's reporting step
// (in °C). A step of 0 disables quantisation.
type Quantized struct {
	Sensor
	StepC float64
}

// ReadC reads the wrapped sensor and rounds to the nearest step.
func (q *Quantized) ReadC() (float64, error) {
	v, err := q.Sensor.ReadC()
	if err != nil {
		return 0, err
	}
	if q.StepC <= 0 {
		return v, nil
	}
	return math.Round(v/q.StepC) * q.StepC, nil
}

// Registry aggregates providers and serves a stable, name-sorted sensor
// list — the fixed sensor ordering Tempest's reports index as sensor1,
// sensor2, … It is safe for concurrent use after Discover.
type Registry struct {
	mu        sync.RWMutex
	providers []Provider
	sensors   []Sensor
}

// NewRegistry returns a registry over the given providers.
func NewRegistry(providers ...Provider) *Registry {
	return &Registry{providers: providers}
}

// Discover enumerates all providers, sorts sensors by name, and caches the
// list. Providers reporting ErrNoSensors are skipped; any other error
// aborts. Discover returns ErrNoSensors if nothing at all was found.
func (r *Registry) Discover() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var all []Sensor
	for _, p := range r.providers {
		ss, err := p.Sensors()
		if errors.Is(err, ErrNoSensors) {
			continue
		}
		if err != nil {
			return fmt.Errorf("sensors: discovery failed: %w", err)
		}
		all = append(all, ss...)
	}
	if len(all) == 0 {
		return ErrNoSensors
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name() < all[j].Name() })
	r.sensors = all
	return nil
}

// Sensors returns the discovered, name-ordered sensor list.
func (r *Registry) Sensors() []Sensor {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Sensor(nil), r.sensors...)
}

// Len reports the number of discovered sensors.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sensors)
}

// ReadAll reads every discovered sensor once, returning values in sensor
// order.
//
// NaN contract: the returned slice always has exactly Len() entries in the
// stable name order, and a sensor that fails to read yields NaN — never a
// zero, which is a legitimate temperature — for its slot. Each failure
// also contributes to the returned error (joined, one per failing sensor,
// prefixed with the sensor name); healthy sensors still report. Callers
// therefore detect per-slot failure with math.IsNaN (or the v != v idiom)
// and must not treat a non-nil error as "no data": the slice remains
// valid. Quarantined sensors (see Resilient) fail fast with
// ErrQuarantined and likewise yield NaN.
func (r *Registry) ReadAll() ([]float64, error) {
	ss := r.Sensors()
	out := make([]float64, len(ss))
	var errs []error
	for i, s := range ss {
		v, err := s.ReadC()
		if err != nil {
			out[i] = math.NaN()
			errs = append(errs, fmt.Errorf("%s: %w", s.Name(), err))
			continue
		}
		out[i] = v
	}
	return out, errors.Join(errs...)
}
