package sensors

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"tempest/internal/thermal"
)

// SimProvider exposes a thermal.CPU model as a sensor set shaped like the
// paper's Opteron nodes: one die sensor per socket, one heatsink sensor
// per socket, a motherboard sensor and an ambient sensor — six sensors on
// a dual-socket box, matching the sensor1…sensor6 rows of Tables 2–3.
//
// Readings are quantised to QuantC (default 1 °C), reproducing the coarse
// value grid hardware chips report. Access to the CPU model is serialised
// through mu, which the cluster package shares with the workload driver.
type SimProvider struct {
	CPU *thermal.CPU
	// Mu guards CPU; SimProvider locks it for every read. Callers that
	// mutate the model (the workload driver) must hold the same mutex.
	Mu *sync.Mutex
	// QuantC is the reporting step in °C; 0 defaults to 1 °C, negative
	// disables quantisation.
	QuantC float64
	// Prefix namespaces sensor names, e.g. "node3". Defaults to "sim".
	Prefix string
}

// NewSimProvider wraps cpu with the default 1 °C quantisation.
func NewSimProvider(cpu *thermal.CPU, mu *sync.Mutex, prefix string) *SimProvider {
	return &SimProvider{CPU: cpu, Mu: mu, Prefix: prefix}
}

func (p *SimProvider) step() float64 {
	if p.QuantC == 0 {
		return 1.0
	}
	if p.QuantC < 0 {
		return 0
	}
	return p.QuantC
}

func (p *SimProvider) prefix() string {
	if p.Prefix == "" {
		return "sim"
	}
	return p.Prefix
}

// Sensors implements Provider.
func (p *SimProvider) Sensors() ([]Sensor, error) {
	if p.CPU == nil {
		return nil, ErrNoSensors
	}
	lock := func() {
		if p.Mu != nil {
			p.Mu.Lock()
		}
	}
	unlock := func() {
		if p.Mu != nil {
			p.Mu.Unlock()
		}
	}
	var out []Sensor
	add := func(name, label string, read func() (float64, error)) {
		out = append(out, &Quantized{
			StepC: p.step(),
			Sensor: &FuncSensor{
				SensorName:  p.prefix() + "/" + name,
				SensorLabel: label,
				Read: func() (float64, error) {
					lock()
					defer unlock()
					return read()
				},
			},
		})
	}
	idx := 0
	next := func() string {
		idx++
		return fmt.Sprintf("temp%d", idx)
	}
	for s := 0; s < p.CPU.Sockets(); s++ {
		s := s
		add(next(), fmt.Sprintf("CPU %d Core", s),
			func() (float64, error) { return p.CPU.DieTempC(s) })
	}
	for s := 0; s < p.CPU.Sockets(); s++ {
		s := s
		add(next(), fmt.Sprintf("CPU %d Heatsink", s),
			func() (float64, error) { return p.CPU.SinkTempC(s) })
	}
	add(next(), "M/B Temp",
		func() (float64, error) { return p.CPU.MoboTempC(), nil })
	add(next(), "Ambient",
		func() (float64, error) { return p.CPU.AmbientTempC(), nil })
	return out, nil
}

// ExternalSensor models the physically attached reference thermometer the
// paper validates against (§3.2): it tracks the true temperature of
// socket 0's die through a first-order lag (thermal mass of the probe) plus small
// Gaussian noise, and is NOT quantised — an independent measurement
// channel rather than another motherboard chip.
type ExternalSensor struct {
	CPU *thermal.CPU
	Mu  *sync.Mutex
	// LagS is the probe's time constant in seconds (default 1 s).
	LagS float64
	// NoiseC is the 1-sigma measurement noise in °C (default 0.1).
	NoiseC float64
	Seed   int64

	mu       sync.Mutex
	rng      *rand.Rand
	lastRead time.Time
	value    float64
	primed   bool
	// clockNow optionally replaces time.Now for deterministic tests and
	// virtual-time runs; it returns elapsed time at the instant of call.
	ClockNow func() time.Duration
	lastVirt time.Duration
}

// Name implements Sensor.
func (e *ExternalSensor) Name() string { return "external/probe0" }

// Label implements Sensor.
func (e *ExternalSensor) Label() string { return "External probe CPU 0" }

// ReadC implements Sensor with lag + noise against the model ground truth.
func (e *ExternalSensor) ReadC() (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.Seed))
	}
	lag := e.LagS
	if lag <= 0 {
		lag = 1
	}
	noise := e.NoiseC
	if noise == 0 {
		noise = 0.1
	}

	if e.Mu != nil {
		e.Mu.Lock()
	}
	truth, err := e.CPU.DieTempC(0)
	if e.Mu != nil {
		e.Mu.Unlock()
	}
	if err != nil {
		return 0, err
	}

	var dt float64
	if e.ClockNow != nil {
		now := e.ClockNow()
		if e.primed {
			dt = (now - e.lastVirt).Seconds()
		}
		e.lastVirt = now
	} else {
		now := time.Now()
		if e.primed {
			dt = now.Sub(e.lastRead).Seconds()
		}
		e.lastRead = now
	}
	if !e.primed {
		e.value = truth
		e.primed = true
	} else {
		alpha := 1 - math.Exp(-dt/lag)
		e.value += alpha * (truth - e.value)
	}
	return e.value + e.rng.NormFloat64()*noise, nil
}
