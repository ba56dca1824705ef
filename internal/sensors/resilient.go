package sensors

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Health is the per-sensor state in the resilience state machine.
//
// The paper's runs trust every LM-sensors reading for hours at a stretch;
// real chips drift, stick and drop off the bus. Resilient tracks each
// sensor through
//
//	healthy → suspect → quarantined → probing → recovered → healthy
//
// so a flaky sensor degrades the profile (fewer trusted sensors) instead
// of poisoning it (garbage readings averaged into per-function stats).
type Health int

// Health states.
const (
	// StateHealthy: readings are trusted.
	StateHealthy Health = iota
	// StateSuspect: recent failures; still read, not yet trusted less.
	StateSuspect
	// StateQuarantined: reads are short-circuited without touching the
	// hardware; the sensor is re-probed periodically.
	StateQuarantined
	// StateProbing: a quarantined sensor is being given one trial read.
	StateProbing
	// StateRecovered: the trial read succeeded; one more good read
	// returns the sensor to StateHealthy.
	StateRecovered
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateQuarantined:
		return "quarantined"
	case StateProbing:
		return "probing"
	case StateRecovered:
		return "recovered"
	default:
		return fmt.Sprintf("Health(%d)", int(h))
	}
}

// ErrQuarantined reports a read short-circuited because the sensor is
// quarantined. Registry.ReadAll maps it to NaN like any other failure;
// callers can errors.Is to distinguish "known bad, skipped cheaply" from
// a fresh hardware error.
var ErrQuarantined = errors.New("sensors: sensor quarantined")

// ErrImplausible reports a reading outside the configured °C bounds.
var ErrImplausible = errors.New("sensors: implausible reading")

// ErrStuck reports a sensor returning the same value too many times.
var ErrStuck = errors.New("sensors: stuck reading")

// minPlausibleC and maxPlausibleC bound plausible die temperatures: the
// industrial silicon range. Readings outside count as failures.
const (
	minPlausibleC = -40
	maxPlausibleC = 125
)

// ResilientConfig tunes the Resilient wrapper. Zero fields take defaults.
type ResilientConfig struct {
	// MaxRetries is how many times a failing read is retried before the
	// failure counts against the sensor (default 2).
	MaxRetries int
	// BackoffBase is the first retry delay, doubling per retry up to
	// BackoffMax (defaults 1ms / 16ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// QuarantineAfter is the consecutive-failure count that quarantines
	// the sensor (default 4). The sensor turns suspect on its first
	// consecutive failure.
	QuarantineAfter int
	// ProbeEvery re-probes a quarantined sensor every Nth read attempt
	// (default 16). Probing is read-count based, not wall-clock based,
	// so virtual-time runs stay deterministic.
	ProbeEvery int
	// StuckLimit quarantines a sensor repeating the exact same value
	// this many consecutive times; 0 disables (quantised chips repeat
	// legitimately, so this is opt-in).
	StuckLimit int
	// Sleep is the backoff hook (default time.Sleep); virtual-time runs
	// and tests pass a no-op or clock-advancing closure.
	Sleep func(time.Duration)
}

func (c ResilientConfig) withDefaults() ResilientConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 16 * time.Millisecond
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 4
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 16
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Resilient wraps a Sensor with bounded retry, plausibility checks and the
// health state machine. It is safe for concurrent use.
type Resilient struct {
	Sensor
	cfg ResilientConfig

	mu          sync.Mutex
	state       Health
	consecFails int
	sinceProbe  int
	lastVal     float64
	stuckRun    int
	haveLast    bool
}

// NewResilient wraps s with the given policy.
func NewResilient(s Sensor, cfg ResilientConfig) *Resilient {
	return &Resilient{Sensor: s, cfg: cfg.withDefaults()}
}

// Health reports the sensor's current state.
func (r *Resilient) Health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// ReadC implements Sensor. Quarantined sensors fail fast with
// ErrQuarantined (no hardware touch) except on probe attempts; otherwise
// the wrapped sensor is read with bounded retry + exponential backoff, and
// successful readings are vetted for plausibility and stuck values.
func (r *Resilient) ReadC() (float64, error) {
	r.mu.Lock()
	if r.state == StateQuarantined {
		r.sinceProbe++
		if r.sinceProbe < r.cfg.ProbeEvery {
			r.mu.Unlock()
			return 0, fmt.Errorf("%w: %s", ErrQuarantined, r.Sensor.Name())
		}
		r.sinceProbe = 0
		r.state = StateProbing
	}
	probing := r.state == StateProbing
	r.mu.Unlock()

	v, err := r.readWithRetry(probing)

	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		err = r.vet(v)
	}
	if err != nil {
		if probing {
			// Failed probe: straight back to quarantine.
			r.state = StateQuarantined
			return 0, fmt.Errorf("%w: %s: probe failed: %v", ErrQuarantined, r.Sensor.Name(), err)
		}
		r.consecFails++
		switch {
		case r.consecFails >= r.cfg.QuarantineAfter:
			r.state = StateQuarantined
			r.sinceProbe = 0
		case r.state == StateHealthy || r.state == StateRecovered:
			r.state = StateSuspect
		}
		return 0, err
	}
	r.consecFails = 0
	switch r.state {
	case StateProbing:
		r.state = StateRecovered
	case StateRecovered, StateSuspect:
		r.state = StateHealthy
	}
	return v, nil
}

// readWithRetry performs the raw read. Probe attempts get a single try:
// a quarantined sensor has already spent its retry budget.
func (r *Resilient) readWithRetry(probing bool) (float64, error) {
	attempts := r.cfg.MaxRetries + 1
	if probing {
		attempts = 1
	}
	backoff := r.cfg.BackoffBase
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			r.cfg.Sleep(backoff)
			if backoff *= 2; backoff > r.cfg.BackoffMax {
				backoff = r.cfg.BackoffMax
			}
		}
		v, err := r.Sensor.ReadC()
		if err == nil {
			return v, nil
		}
		lastErr = err
	}
	return 0, lastErr
}

// vet checks a successful reading for plausibility and stuck values.
// Called with the lock held.
func (r *Resilient) vet(v float64) error {
	if math.IsNaN(v) || v < minPlausibleC || v > maxPlausibleC {
		return fmt.Errorf("%w: %s reported %.2f °C (plausible range [%d, %d])",
			ErrImplausible, r.Sensor.Name(), v, minPlausibleC, maxPlausibleC)
	}
	if r.haveLast && v == r.lastVal {
		r.stuckRun++
		if r.cfg.StuckLimit > 0 && r.stuckRun >= r.cfg.StuckLimit {
			r.stuckRun = 0
			return fmt.Errorf("%w: %s repeated %.2f °C %d times",
				ErrStuck, r.Sensor.Name(), v, r.cfg.StuckLimit)
		}
	} else {
		r.stuckRun = 0
	}
	r.lastVal, r.haveLast = v, true
	return nil
}

// HealthReporter is implemented by sensors that track their own health;
// Registry.Health uses it and assumes StateHealthy for everything else.
type HealthReporter interface {
	Health() Health
}

// SensorHealth is one row of a registry health snapshot.
type SensorHealth struct {
	// Index is the sensor's position in the registry's stable order.
	Index int
	Name  string
	State Health
}

// WrapResilient replaces every discovered sensor with a Resilient wrapper
// under the given policy. Call after Discover; calling again re-wraps
// (resetting health state). The stable name order is preserved.
func (r *Registry) WrapResilient(cfg ResilientConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.sensors {
		if inner, ok := s.(*Resilient); ok {
			s = inner.Sensor
		}
		r.sensors[i] = NewResilient(s, cfg)
	}
}

// Health snapshots the state of every discovered sensor. Sensors that do
// not implement HealthReporter report StateHealthy — an unwrapped sensor
// is trusted by definition.
func (r *Registry) Health() []SensorHealth {
	ss := r.Sensors()
	out := make([]SensorHealth, len(ss))
	for i, s := range ss {
		st := StateHealthy
		if hr, ok := s.(HealthReporter); ok {
			st = hr.Health()
		}
		out[i] = SensorHealth{Index: i, Name: s.Name(), State: st}
	}
	return out
}
