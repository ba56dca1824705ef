// Package introspect is Tempest's self-observability layer: a
// process-wide registry of named counters, gauges and value
// distributions that every long-running component (tempd's sample loop,
// LiveSession's drain loop, the trace writer, the shipper, the
// collector's shards) records into, plus the exposition formats that
// make the registry visible — Prometheus text, expvar-style JSON and a
// human-readable one-pager.
//
// The paper's §3.4 validation hinges on Tempest knowing its own cost
// (instrumentation overhead under 7 % of workload wall clock, ~5 %
// run-to-run variance). This package is the reproduction's answer: the
// profiler profiles itself through the same streaming-accumulator
// machinery (internal/stats) it applies to the profiled program, and
// the Accountant (overhead.go) turns the recorded self-time into the
// paper's headline fraction.
//
// Hot paths are a single atomic op (Counter.Add, Gauge.Set); value
// distributions take one short mutex-guarded Welford fold
// (stats.Accumulator with retention disabled, so state is O(1) no
// matter how long the daemon runs). All metric methods are nil-receiver
// safe: a component handed no registry records into nothing at
// near-zero cost instead of branching at every call site.
package introspect

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tempest/internal/stats"
)

// Kind classifies a registry entry for exposition.
type Kind uint8

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindDistribution is a streaming summary (count/min/avg/max/stddev)
	// of observed values, typically latencies in seconds.
	KindDistribution
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindDistribution:
		return "summary"
	}
	return "untyped"
}

// Counter is a monotonic counter with an atomic hot path. The nil
// counter is a valid no-op sink.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer-valued level with an atomic hot path (counts,
// depths, capacities; float-valued gauges are registered as sampled
// funcs instead). The nil gauge is a valid no-op sink.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value reports the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Distribution is a streaming summary of observed values — latencies,
// batch sizes — in O(1) state (Welford fold, no sample retention). The
// nil distribution is a valid no-op sink.
type Distribution struct {
	mu  sync.Mutex
	acc stats.Accumulator
}

// Observe folds one value into the distribution. NaN observations are
// ignored (the sensor NaN contract must not poison self-metrics).
func (d *Distribution) Observe(v float64) {
	if d == nil || math.IsNaN(v) {
		return
	}
	d.mu.Lock()
	d.acc.Add(v)
	d.mu.Unlock()
}

// ObserveSince folds the elapsed seconds since start — the latency
// idiom: defer d.ObserveSince(time.Now()).
func (d *Distribution) ObserveSince(start time.Time) {
	if d == nil {
		return
	}
	d.Observe(time.Since(start).Seconds())
}

// Snapshot returns the distribution's summary so far. N is 0 when
// nothing was observed; Med/Mod are NaN (retention is disabled).
func (d *Distribution) Snapshot() stats.Summary {
	if d == nil {
		return stats.Summary{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s, err := d.acc.Summary()
	if err != nil {
		return stats.Summary{}
	}
	return s
}

// entry is one registered metric. Exactly one of counter, gauge, fn or
// dist is set, matching kind (fn may back either a counter or a gauge).
type entry struct {
	name   string // metric family name
	labels string // inner label text, e.g. `shard="0"`, or ""
	help   string
	kind   Kind

	counter *Counter
	gauge   *Gauge
	dist    *Distribution

	fnMu sync.Mutex
	fn   func() float64 // sampled at exposition time; latest registration wins
}

// value samples the entry's current scalar value (counters and gauges).
func (e *entry) value() float64 {
	switch {
	case e.counter != nil:
		return float64(e.counter.Value())
	case e.gauge != nil:
		return float64(e.gauge.Value())
	case e.fn != nil:
		e.fnMu.Lock()
		fn := e.fn
		e.fnMu.Unlock()
		return fn()
	}
	return 0
}

// Registry holds named metrics in registration order (exposition is
// deterministic and groups label variants of a family together when
// they are registered consecutively). All registration methods are
// get-or-create and safe for concurrent use; registering an existing
// name with a different kind panics — that is a programming error, not
// a runtime condition. A nil *Registry is valid: every registration
// returns a nil metric, whose methods are no-ops.
type Registry struct {
	mu    sync.Mutex
	order []*entry
	byKey map[string]*entry
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

var defaultRegistry = New()

// Default returns the process-wide registry the daemons expose on their
// debug surfaces. Components default to it when given no registry.
func Default() *Registry { return defaultRegistry }

// lookup get-or-creates an entry under the registry lock.
func (r *Registry) lookup(name, labels, help string, kind Kind) (*entry, bool) {
	key := name
	if labels != "" {
		key += "{" + labels + "}"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("introspect: %s re-registered as %s (was %s)", key, kind, e.kind))
		}
		return e, false
	}
	e := &entry{name: name, labels: labels, help: help, kind: kind}
	r.byKey[key] = e
	r.order = append(r.order, e)
	return e, true
}

// Counter registers (or returns the existing) monotonic counter.
func (r *Registry) Counter(name, help string) *Counter { return r.CounterL(name, "", help) }

// CounterL is Counter with a fixed label set (e.g. `shard="0"`).
func (r *Registry) CounterL(name, labels, help string) *Counter {
	if r == nil {
		return nil
	}
	e, fresh := r.lookup(name, labels, help, KindCounter)
	if fresh {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge registers (or returns the existing) integer gauge.
func (r *Registry) Gauge(name, help string) *Gauge { return r.GaugeL(name, "", help) }

// GaugeL is Gauge with a fixed label set.
func (r *Registry) GaugeL(name, labels, help string) *Gauge {
	if r == nil {
		return nil
	}
	e, fresh := r.lookup(name, labels, help, KindGauge)
	if fresh {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// CounterGauge registers a counter-backed metric exposed with gauge
// TYPE — the Prometheus idiom for a level that only grows but is not a
// rate-able event count (e.g. "distinct nodes ever seen").
func (r *Registry) CounterGauge(name, help string) *Counter {
	if r == nil {
		return nil
	}
	e, fresh := r.lookup(name, "", help, KindGauge)
	if fresh {
		e.counter = &Counter{}
	}
	return e.counter
}

// Func registers a gauge sampled from fn at exposition time. Re-registering
// the same name replaces the function (latest wins), so a component that is
// recreated — a new LiveSession in the same process — rebinds the metric to
// the live instance instead of leaving a stale closure.
func (r *Registry) Func(name, help string, fn func() float64) { r.FuncL(name, "", help, fn) }

// FuncL is Func with a fixed label set.
func (r *Registry) FuncL(name, labels, help string, fn func() float64) {
	r.funcAs(name, labels, help, KindGauge, fn)
}

// FuncCounter registers a counter-typed metric sampled from fn — for
// monotonic values a component already tracks itself (writer byte
// counts, shipper stats). Latest registration wins, like Func.
func (r *Registry) FuncCounter(name, help string, fn func() float64) {
	r.funcAs(name, "", help, KindCounter, fn)
}

func (r *Registry) funcAs(name, labels, help string, kind Kind, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	e, _ := r.lookup(name, labels, help, kind)
	e.fnMu.Lock()
	e.fn = fn
	e.fnMu.Unlock()
}

// Distribution registers (or returns the existing) value distribution.
func (r *Registry) Distribution(name, help string) *Distribution {
	if r == nil {
		return nil
	}
	e, fresh := r.lookup(name, "", help, KindDistribution)
	if fresh {
		e.dist = &Distribution{}
	}
	return e.dist
}

// Sample is one metric's state at snapshot time.
type Sample struct {
	Name   string
	Labels string // inner label text, "" when unlabelled
	Help   string
	Kind   Kind
	Value  float64       // counters and gauges
	Dist   stats.Summary // distributions (zero otherwise)
}

// Snapshot returns every metric's current state in registration order.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	order := append([]*entry(nil), r.order...)
	r.mu.Unlock()
	out := make([]Sample, 0, len(order))
	for _, e := range order {
		s := Sample{Name: e.name, Labels: e.labels, Help: e.help, Kind: e.kind}
		if e.dist != nil {
			s.Dist = e.dist.Snapshot()
		} else {
			s.Value = e.value()
		}
		out = append(out, s)
	}
	return out
}
