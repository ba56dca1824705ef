// Package tempd implements Tempest's temperature-sampling daemon.
//
// The paper launches a lightweight process, tempd, before the profiled
// application's main, samples every available thermal sensor four times
// per second, and stops it with a signal from the shared library's
// destructor (§3.2). It verifies tempd itself uses under 1 % CPU and has
// no measurable thermal impact (§4.1).
//
// This package reproduces that component with two drive modes:
//
//   - Start/Stop runs a background goroutine on the OS clock, for
//     profiling real executions against real (hwmon) sensors; and
//   - SampleOnce lets a simulation engine invoke sampling at exact
//     virtual-time boundaries, keeping simulated runs deterministic.
//
// Samples are recorded as KindSample events in the run's trace, so the
// parser sees one merged timeline. Sensor identities are published into
// the trace's symbol table as "sensor:<id>:<label>" markers at startup,
// letting the parser restore names without extending the trace format.
package tempd

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tempest/internal/introspect"
	"tempest/internal/sensors"
	"tempest/internal/trace"
)

// DefaultRateHz is the paper's sampling rate: four samples per second.
const DefaultRateHz = 4

// Config configures a Daemon.
type Config struct {
	// Registry supplies the sensors to sample; required, and must have
	// been Discover()ed.
	Registry *sensors.Registry
	// Tracer receives sample events; required.
	Tracer *trace.Tracer
	// RateHz is the sampling frequency; 0 defaults to DefaultRateHz.
	RateHz float64
	// Introspect receives the daemon's self-observability metrics (sensor
	// read latency, tick lag, sample counters, busy fraction). Nil means
	// the process-wide introspect.Default() registry.
	Introspect *introspect.Registry
}

// Daemon samples sensors into a trace.
type Daemon struct {
	reg      *sensors.Registry
	tracer   *trace.Tracer
	interval time.Duration

	samples    atomic.Uint64
	failures   atomic.Uint64
	perSensor  []atomic.Uint64 // read failures by sensor index
	lastHealth []sensors.Health
	busyNS     atomic.Int64 // cumulative time spent inside SampleOnce

	readSeconds *introspect.Distribution // registry ReadAll latency per round
	tickLag     *introspect.Distribution // delay between tick fire and loop wakeup
	mSamples    *introspect.Counter
	mFailures   *introspect.Counter

	mu       sync.Mutex
	started  time.Time
	stopCh   chan struct{}
	doneCh   chan struct{}
	running  bool
	wallNS   int64 // accumulated run time across Start/Stop cycles
	announce sync.Once
}

// New validates the configuration and builds a daemon.
func New(cfg Config) (*Daemon, error) {
	if cfg.Registry == nil {
		return nil, errors.New("tempd: Config.Registry is required")
	}
	if cfg.Tracer == nil {
		return nil, errors.New("tempd: Config.Tracer is required")
	}
	// Above 1 GHz the sampling interval truncates to 0 ns.
	if !(cfg.RateHz >= 0 && cfg.RateHz <= 1e9) {
		return nil, fmt.Errorf("tempd: sample rate %v Hz outside [0, 1e9]", cfg.RateHz)
	}
	rate := cfg.RateHz
	if rate == 0 {
		rate = DefaultRateHz
	}
	if cfg.Registry.Len() == 0 {
		return nil, errors.New("tempd: registry has no sensors (run Discover first)")
	}
	d := &Daemon{
		reg:        cfg.Registry,
		tracer:     cfg.Tracer,
		interval:   time.Duration(float64(time.Second) / rate),
		perSensor:  make([]atomic.Uint64, cfg.Registry.Len()),
		lastHealth: make([]sensors.Health, cfg.Registry.Len()),
	}
	ir := cfg.Introspect
	if ir == nil {
		ir = introspect.Default()
	}
	d.readSeconds = ir.Distribution("tempest_tempd_read_seconds", "Sensor registry ReadAll latency per sampling round.")
	d.tickLag = ir.Distribution("tempest_tempd_tick_lag_seconds", "Delay between the sampling tick firing and the loop waking up.")
	d.mSamples = ir.Counter("tempest_tempd_samples_total", "Sample events recorded across all sensors.")
	d.mFailures = ir.Counter("tempest_tempd_read_failures_total", "Sensor read failures (NaN slots) across all sensors.")
	ir.Func("tempest_tempd_busy_fraction", "Fraction of wall time spent inside SampleOnce (paper §4.1 bounds this below 1%).", d.BusyFraction)
	return d, nil
}

// announceSensors publishes sensor identities into the trace once.
func (d *Daemon) announceSensors() {
	d.announce.Do(func() {
		for i, s := range d.reg.Sensors() {
			d.tracer.Marker(fmt.Sprintf("sensor:%d:%s", i, s.Label()))
		}
	})
}

// SampleOnce reads every sensor and records one sample event per healthy
// sensor. Per the Registry.ReadAll NaN contract, a failing sensor's slot
// is NaN: that slot is skipped, counted globally and per sensor index, and
// the aggregate error retained for Stats. Sensor health transitions
// (quarantine, recovery, …) observed since the previous call are emitted
// as "sensor-health:<id>:<state>" markers so the parser can annotate gaps
// in the temperature-vs-time profile. The first call also announces sensor
// identities. The returned error aggregates per-sensor failures (sampling
// continues past them).
func (d *Daemon) SampleOnce() error {
	start := time.Now()
	d.announceSensors()
	vals, err := d.reg.ReadAll()
	d.readSeconds.ObserveSince(start)
	for i, v := range vals {
		if math.IsNaN(v) { // sensor failed this round (ReadAll NaN contract)
			d.failures.Add(1)
			d.mFailures.Inc()
			if i < len(d.perSensor) {
				d.perSensor[i].Add(1)
			}
			continue
		}
		d.tracer.Sample(uint32(i), v)
		d.samples.Add(1)
		d.mSamples.Inc()
	}
	d.markHealthTransitions()
	d.busyNS.Add(int64(time.Since(start)))
	return err
}

// markHealthTransitions diffs the registry health snapshot against the
// previous one and drops a degraded-mode marker per change.
func (d *Daemon) markHealthTransitions() {
	for _, h := range d.reg.Health() {
		if h.Index >= len(d.lastHealth) || h.State == d.lastHealth[h.Index] {
			continue
		}
		d.lastHealth[h.Index] = h.State
		d.tracer.Marker(fmt.Sprintf("sensor-health:%d:%s", h.Index, h.State))
	}
}

// Start launches real-time sampling. It is an error to start a running
// daemon.
func (d *Daemon) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.running {
		return errors.New("tempd: already running")
	}
	d.running = true
	d.started = time.Now()
	d.stopCh = make(chan struct{})
	d.doneCh = make(chan struct{})
	go d.loop(d.stopCh, d.doneCh)
	return nil
}

func (d *Daemon) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	_ = d.SampleOnce() // sample immediately at t=0, like the paper's tempd
	for {
		select {
		case <-stop:
			return
		case t := <-ticker.C:
			// Lag between the tick firing and this goroutine actually
			// running — scheduler pressure visible before samples skew.
			d.tickLag.Observe(time.Since(t).Seconds())
			_ = d.SampleOnce()
		}
	}
}

// Stop terminates real-time sampling — the in-process equivalent of the
// destructor's signal to the tempd process. Stopping a stopped daemon is
// an error.
func (d *Daemon) Stop() error {
	d.mu.Lock()
	if !d.running {
		d.mu.Unlock()
		return errors.New("tempd: not running")
	}
	close(d.stopCh)
	done := d.doneCh
	d.running = false
	d.wallNS += int64(time.Since(d.started))
	d.mu.Unlock()
	<-done
	return nil
}

// Samples reports successfully recorded sample events.
func (d *Daemon) Samples() uint64 { return d.samples.Load() }

// Failures reports sensor read failures encountered.
func (d *Daemon) Failures() uint64 { return d.failures.Load() }

// FailuresBySensor reports read failures per sensor index (registry
// order) — the breakdown that distinguishes one dying chip from systemic
// trouble.
func (d *Daemon) FailuresBySensor() []uint64 {
	out := make([]uint64, len(d.perSensor))
	for i := range d.perSensor {
		out[i] = d.perSensor[i].Load()
	}
	return out
}

// Health proxies the registry's current health snapshot.
func (d *Daemon) Health() []sensors.SensorHealth { return d.reg.Health() }

// BusyFraction reports the fraction of wall time spent actually sampling
// — the quantity the paper bounds below 1 % CPU (§4.1). It is only
// meaningful for real-time runs; virtual runs should use BusyTime.
func (d *Daemon) BusyFraction() float64 {
	d.mu.Lock()
	wall := d.wallNS
	if d.running {
		wall += int64(time.Since(d.started))
	}
	d.mu.Unlock()
	if wall == 0 {
		return 0
	}
	return float64(d.busyNS.Load()) / float64(wall)
}

// BusyTime reports cumulative time spent inside SampleOnce.
func (d *Daemon) BusyTime() time.Duration { return time.Duration(d.busyNS.Load()) }
