package tempest

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"tempest/instrument"
	"tempest/internal/critpath"
	"tempest/internal/introspect"
	"tempest/internal/parser"
	"tempest/internal/sensors"
	"tempest/internal/stats"
	"tempest/internal/tempd"
	"tempest/internal/thermal"
	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// LiveConfig configures real-machine profiling.
type LiveConfig struct {
	// HwmonRoot is the sysfs directory to scan for hardware sensors
	// (default /sys/class/hwmon). If no sensors are found and
	// AllowSimulatedSensors is set, a simulated sensor set backed by the
	// default thermal model is used instead, so the full pipeline still
	// runs on sensorless machines (VMs, containers).
	HwmonRoot             string
	AllowSimulatedSensors bool
	// SampleRateHz is tempd's sampling rate (default 4).
	SampleRateHz float64
	// Unit of reported statistics (default Fahrenheit).
	Unit Unit
	// NodeID labels the produced trace.
	NodeID uint32
	// DrainInterval is how often buffered events are drained from the
	// tracer into the session's streaming profile builder (default
	// 500 ms). Draining keeps the session's memory O(profile) rather
	// than O(events) over arbitrarily long runs, and is what makes
	// Snapshot cheap.
	DrainInterval time.Duration
	// LaneBufferCap bounds each tracer lane's buffered events between
	// drains. It must be positive: NewLiveSession rejects zero or
	// negative caps instead of silently substituting a default, because
	// the cap is the session's loss boundary — auto-instrumented code
	// traces every function call and can outrun an unconsidered default
	// between two drain ticks, which surfaces as dropped events (counted
	// on tempest_live_lane_overflow_total) and a desynced profile.
	// Callers without a specific sizing should pass
	// DefaultLaneBufferCap explicitly; raise it (or lower DrainInterval,
	// or run adaptive sampling) for fine-grained instrumentation.
	LaneBufferCap int
	// DrainSink, when set, receives every drained batch along with the
	// tracer's live symbol table — the fleet-mode hook: tempest-live
	// wires a collect.Shipper here. Batches arrive in record order,
	// serialised under the session's builder lock, and the slice is not
	// retained by the session after the call. The sink must not block
	// for long; it runs on the drain loop.
	DrainSink func(events []trace.Event, sym *trace.SymTab)
	// CoarseSink, when set, receives the coarse instrumentation buckets
	// (per-function call counts and cumulative time from
	// instrument.FlushCoarse) flushed on every drain tick — the adaptive
	// fleet hook: tempest-live wires a collect.Shipper's ShipCoarse
	// here so functions running in ModeCoarse still contribute ranking
	// signal to the collector. Like DrainSink it runs on the drain loop
	// and must not block for long.
	CoarseSink func(stats []instrument.CoarseStat)
	// Introspect receives the session's self-observability metrics (drain
	// latency, lane buffer high water, overhead fraction) and is handed
	// down to tempd. Nil means the process-wide introspect.Default()
	// registry.
	Introspect *introspect.Registry
	// CritPath, when set, runs a streaming critical-path analyzer beside
	// the profile builder: every drained batch is also folded into an
	// internal/critpath.Analyzer, and CritPathSummary exposes live
	// straggler/serialization snapshots (tempest-live -watch's straggler
	// lines). Costs O(lanes + functions) extra state, no event history.
	CritPath bool
}

// DefaultLaneBufferCap is the lane capacity to pass when no workload-
// specific sizing exists: 65536 events per lane between drains, the
// historical default. LiveConfig.LaneBufferCap must be set explicitly —
// see its doc comment.
const DefaultLaneBufferCap = 1 << 16

// LiveSession profiles real code on the current machine: an explicit
// Enter/Exit instrumentation API (the paper's "non-transparent profiling
// library"), with tempd sampling in the background.
//
// The session is streaming end to end: a background loop periodically
// drains the tracer's lane buffers into an online parser.Builder, so
// the full event history is never held in memory and an in-progress
// profile (Snapshot) is available at any moment — the live hot-spot
// view. Close finishes the builder into the final Profile; the raw
// trace is not retained (use cmd/tempd to record trace files).
type LiveSession struct {
	cfg    LiveConfig
	tracer *trace.Tracer
	daemon *tempd.Daemon

	bmu sync.Mutex
	// core matches the session's stacks once per event; builder and the
	// optional critical-path analyzer crit consume its facts under the
	// same lock, so both views agree event for event.
	core    *trace.Fold
	builder *parser.Builder
	crit    *critpath.Analyzer

	ir           *introspect.Registry
	acct         *introspect.Accountant
	drainSeconds *introspect.Distribution
	drainEvents  *introspect.Distribution
	drained      *introspect.Counter

	drainStop chan struct{}
	drainDone chan struct{}

	// ctlMu guards pendingCtl, the latest not-yet-applied control
	// directive from the collector. Latest-wins: directives are full
	// desired sets, so only the newest matters.
	ctlMu      sync.Mutex
	pendingCtl *instrument.Directive // guarded by ctlMu

	// simCPU is non-nil when simulated sensors are in use; Step'ing it
	// happens on the wall clock inside a background goroutine.
	simCPU  *thermal.CPU
	simMu   *sync.Mutex
	simStop chan struct{}
	simDone chan struct{}
	closed  bool
}

// NewLiveSession discovers sensors, starts tempd, and returns a running
// session. Callers must Close it to obtain the profile.
func NewLiveSession(cfg LiveConfig) (*LiveSession, error) {
	if cfg.LaneBufferCap <= 0 {
		return nil, fmt.Errorf("tempest: LiveConfig.LaneBufferCap must be positive, got %d (pass DefaultLaneBufferCap for the standard %d-event cap)", cfg.LaneBufferCap, DefaultLaneBufferCap)
	}
	reg := sensors.NewRegistry(sensors.NewHwmonProvider(cfg.HwmonRoot))
	err := reg.Discover()
	s := &LiveSession{cfg: cfg}
	if errors.Is(err, sensors.ErrNoSensors) {
		if !cfg.AllowSimulatedSensors {
			return nil, fmt.Errorf("tempest: no hwmon sensors found (set AllowSimulatedSensors to fall back): %w", err)
		}
		p := thermal.DefaultOpteronParams()
		cpu, cerr := thermal.NewCPU(p)
		if cerr != nil {
			return nil, cerr
		}
		s.simCPU = cpu
		s.simMu = &sync.Mutex{}
		reg = sensors.NewRegistry(sensors.NewSimProvider(cpu, s.simMu, "sim"))
		if err := reg.Discover(); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}

	tracer, err := trace.NewTracer(trace.Config{
		Clock:         vclock.NewRealClock(),
		NodeID:        cfg.NodeID,
		LaneBufferCap: cfg.LaneBufferCap,
	})
	if err != nil {
		return nil, err
	}
	ir := cfg.Introspect
	if ir == nil {
		ir = introspect.Default()
	}
	daemon, err := tempd.New(tempd.Config{Registry: reg, Tracer: tracer, RateHz: cfg.SampleRateHz, Introspect: ir})
	if err != nil {
		return nil, err
	}
	if err := daemon.Start(); err != nil {
		return nil, err
	}
	s.tracer = tracer
	s.daemon = daemon
	s.ir = ir
	// The accountant tracks what profiling costs the workload: drain
	// passes fold in their own duration; tempd contributes its cumulative
	// sampling time as a polled source.
	s.acct = introspect.NewAccountant()
	s.acct.Sample(daemon.BusyTime)
	s.drainSeconds = ir.Distribution("tempest_live_drain_seconds", "Duration of one drain pass (tracer buffers into the streaming builder).")
	s.drainEvents = ir.Distribution("tempest_live_drain_events", "Events moved per drain pass.")
	s.drained = ir.Counter("tempest_live_drained_events_total", "Events drained into the streaming builder.")
	ir.Func("tempest_live_lane_high_water", "Deepest any tracer lane buffer has been (drop threshold is LaneBufferCap).",
		func() float64 { return float64(tracer.LaneHighWater()) })
	// Lane overflow was PR 4's silent failure mode: a lane filling
	// between drains drops events with only DroppedEvents in the final
	// profile to show for it. Surface it as a live counter instead.
	ir.FuncCounter("tempest_live_lane_overflow_total", "Events dropped because a lane buffer filled between drains (raise LaneBufferCap, lower DrainInterval, or run adaptive sampling).",
		func() float64 { return float64(tracer.DroppedCount()) })
	s.acct.Register(ir, "tempest_live_overhead_fraction", "Instrumentation self-time over workload wall clock (paper §3.4 bounds it below 7%).")
	// The core shares the tracer's live (lock-protected) symbol table, so
	// drained events always resolve.
	s.core = trace.NewFold(tracer.SymTab())
	s.builder = parser.NewBuilderOn(s.core, cfg.NodeID, parser.Options{Unit: cfg.Unit})
	if cfg.CritPath {
		s.crit = critpath.New(critpath.Options{})
	}
	drainEvery := cfg.DrainInterval
	if drainEvery == 0 {
		drainEvery = 500 * time.Millisecond
	}
	s.drainStop = make(chan struct{})
	s.drainDone = make(chan struct{})
	go func() {
		defer close(s.drainDone)
		tick := time.NewTicker(drainEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.drainStop:
				return
			case <-tick.C:
				s.drain()
			}
		}
	}()
	if s.simCPU != nil {
		// Advance the simulated thermal model in real time so the
		// fallback sensors move plausibly.
		s.simStop = make(chan struct{})
		s.simDone = make(chan struct{})
		go func() {
			defer close(s.simDone)
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			last := time.Now()
			for {
				select {
				case <-s.simStop:
					return
				case now := <-tick.C:
					s.simMu.Lock()
					_ = s.simCPU.Step(now.Sub(last))
					s.simMu.Unlock()
					last = now
				}
			}
		}()
	}
	return s, nil
}

// Lane allocates an instrumentation lane for one goroutine.
func (s *LiveSession) Lane() *trace.Lane { return s.tracer.NewLane() }

// Instrument runs fn bracketed by Enter/Exit on a fresh lane — a one-shot
// convenience for single-goroutine use.
func (s *LiveSession) Instrument(name string, fn func()) error {
	return s.Lane().Instrument(name, fn)
}

// InstrumentFunc is Instrument with the name resolved from the function's
// own symbol via the runtime — the closest Go gets to the transparency of
// -finstrument-functions: callers pass the function, not a string.
// Anonymous closures get their compiler-assigned names (pkg.fn.func1).
func (s *LiveSession) InstrumentFunc(fn func()) error {
	return s.Lane().Instrument(FuncName(fn), fn)
}

// FuncName resolves a function value's linker symbol, trimmed to its
// package-qualified form.
func FuncName(fn func()) string {
	if fn == nil {
		return "<nil>"
	}
	rf := runtime.FuncForPC(reflect.ValueOf(fn).Pointer())
	if rf == nil {
		return "<unknown>"
	}
	name := rf.Name()
	// Trim the directory part of the import path: "a/b/pkg.Fn" → "pkg.Fn".
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// EnableAutoInstrument binds code rewritten by cmd/tempest-instrument to
// this session: every `defer instrument.Trace(...)()` prologue in the
// process starts recording into the session's tracer on the calling
// goroutine's lane. Close detaches automatically. Only one session can
// be attached at a time; enabling replaces any previous binding.
func (s *LiveSession) EnableAutoInstrument() { instrument.Attach(s.tracer) }

// DisableAutoInstrument unbinds auto-instrumented code from this session
// (a no-op if another session holds the binding).
func (s *LiveSession) DisableAutoInstrument() { instrument.Detach(s.tracer) }

// ApplyControl queues a control directive (a full desired
// instrumentation set from the collector's policy engine) to be applied
// at the next drain tick. Applying between drains — never mid-batch —
// keeps each drained batch internally consistent: a function's mode
// can't flip halfway through the events one drain delivers. Directives
// are full sets, so only the latest queued one is kept. Safe from any
// goroutine; tempest-live wires a Shipper's OnControl callback here.
func (s *LiveSession) ApplyControl(d instrument.Directive) {
	s.ctlMu.Lock()
	s.pendingCtl = &d
	s.ctlMu.Unlock()
}

// Instrumentation reports the runtime's current instrumentation policy:
// applied directive revision, default mode, per-function overrides —
// the "active instrumentation set" of the session's snapshot surface.
func (s *LiveSession) Instrumentation() instrument.Status { return instrument.Current() }

// Marker drops an annotation into the trace.
func (s *LiveSession) Marker(name string) { s.tracer.Marker(name) }

// SetSimUtilization drives the fallback thermal model's core activity
// (no-op with real sensors): tests and demos use it to produce heat.
func (s *LiveSession) SetSimUtilization(core int, u float64) error {
	if s.simCPU == nil {
		return nil
	}
	s.simMu.Lock()
	defer s.simMu.Unlock()
	return s.simCPU.SetCoreUtilization(core, u)
}

// TempdBusyFraction reports the daemon's measured CPU share (§4.1 bounds
// it below 1 %).
func (s *LiveSession) TempdBusyFraction() float64 { return s.daemon.BusyFraction() }

// Overhead reports the session's instrumentation cost so far as a
// fraction of wall clock: tempd's cumulative sampling time plus every
// drain pass, over time since the session started. The paper's §3.4
// bounds this below 7 %.
func (s *LiveSession) Overhead() float64 { return s.acct.Fraction() }

// WriteSelfReport prints a one-page self-observability report of the
// running session: sampling health, drain behaviour, overhead, and every
// registered metric — the body of tempest-live's -status mode.
func (s *LiveSession) WriteSelfReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "tempest-live self report\n========================\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "uptime:               %v\n", s.acct.Wall().Round(time.Millisecond))
	fmt.Fprintf(w, "tempd samples:        %d (%d read failures)\n", s.daemon.Samples(), s.daemon.Failures())
	fmt.Fprintf(w, "tempd busy fraction:  %.4f%% (paper bound: <1%%)\n", s.daemon.BusyFraction()*100)
	fmt.Fprintf(w, "overhead fraction:    %.4f%% (paper bound: <7%%)\n", s.Overhead()*100)
	fmt.Fprintf(w, "lane high water:      %d\n", s.tracer.LaneHighWater())
	fmt.Fprintf(w, "lane overflow drops:  %d\n", s.tracer.DroppedCount())
	ist := s.Instrumentation()
	fmt.Fprintf(w, "instrumentation:      default=%s rev=%d overrides=%d registered=%d\n\n",
		ist.Default, ist.Rev, len(ist.Overrides), ist.Registered)
	return s.ir.WriteText(w)
}

// drain moves buffered trace events into the streaming builder and, in
// fleet mode, hands the same batch to the DrainSink. The whole step runs
// under the builder lock: Drain and Add must be atomic with respect to
// concurrent drains, or two drains could interleave and feed the builder
// a lane's events out of order.
func (s *LiveSession) drain() {
	start := time.Now()
	s.ctlMu.Lock()
	ctl := s.pendingCtl
	s.pendingCtl = nil
	s.ctlMu.Unlock()
	s.bmu.Lock()
	ev, sym := s.tracer.Drain()
	for i := range ev {
		e := &ev[i]
		m := s.core.Step(e)
		// A structural error poisons the builder (Close reports it); the
		// analyzer tolerates odd streams and keeps counting.
		_ = s.builder.Apply(e, m)
		if s.crit != nil {
			s.crit.Apply(s.cfg.NodeID, s.core, e, m)
		}
	}
	if s.cfg.DrainSink != nil {
		s.cfg.DrainSink(ev, sym)
	}
	// The directive lands after this batch ships and before the next
	// records: every batch sees one consistent instrumentation set.
	if ctl != nil {
		instrument.Apply(*ctl)
	}
	if s.cfg.CoarseSink != nil {
		if cs := instrument.FlushCoarse(); len(cs) > 0 {
			s.cfg.CoarseSink(cs)
		}
	}
	s.bmu.Unlock()
	d := time.Since(start)
	s.acct.AddSelf(d)
	s.drainSeconds.Observe(d.Seconds())
	s.drainEvents.Observe(float64(len(ev)))
	s.drained.Add(uint64(len(ev)))
}

// Snapshot returns an in-progress profile of the still-running session —
// the live hot-spot view. Functions currently open are counted as running
// until the latest observed event. The session keeps recording; call
// Close for the final profile.
func (s *LiveSession) Snapshot() (*NodeProfile, error) {
	if s.closed {
		return nil, errors.New("tempest: live session already closed")
	}
	s.drain()
	s.bmu.Lock()
	defer s.bmu.Unlock()
	return s.builder.Snapshot()
}

// OpenFunctions lists the functions currently open on any lane — the
// instantaneous "where is the program right now" of the live view.
func (s *LiveSession) OpenFunctions() []string {
	s.drain()
	s.bmu.Lock()
	defer s.bmu.Unlock()
	return s.builder.OpenFunctions()
}

// CritPathSummary returns a live snapshot of the streaming critical-path
// analysis — who the lanes are waiting for right now — or nil when the
// session was not configured with LiveConfig.CritPath. Non-destructive:
// the analyzer keeps accumulating, like Snapshot.
func (s *LiveSession) CritPathSummary() *critpath.Summary {
	if s.crit == nil {
		return nil
	}
	s.drain()
	s.bmu.Lock()
	defer s.bmu.Unlock()
	return s.crit.Summary()
}

// SensorStats returns streaming summaries of each sensor's whole
// timeline so far, in the session's Unit, from O(1) per-sensor state
// (Med/Mod are NaN).
func (s *LiveSession) SensorStats() []stats.Summary {
	s.drain()
	s.bmu.Lock()
	defer s.bmu.Unlock()
	return s.builder.SensorStats()
}

// Close stops tempd (the destructor's signal in the paper), drains the
// last buffered events and finishes the streaming builder into a
// single-node profile. The profile carries no raw traces: events were
// folded into the builder as the run progressed.
func (s *LiveSession) Close() (*Profile, error) {
	if s.closed {
		return nil, errors.New("tempest: live session already closed")
	}
	s.closed = true
	// Unhook auto-instrumented code first so prologues stop feeding a
	// tracer whose session is going away.
	instrument.Detach(s.tracer)
	if err := s.daemon.Stop(); err != nil {
		return nil, err
	}
	close(s.drainStop)
	<-s.drainDone
	if s.simStop != nil {
		close(s.simStop)
		<-s.simDone
	}
	s.drain()
	// Freeze the overhead number at shutdown, before report generation
	// inflates wall clock.
	overhead := s.acct.Fraction()
	s.bmu.Lock()
	defer s.bmu.Unlock()
	np, err := s.builder.Finish()
	if err != nil {
		return nil, err
	}
	parsed := &parser.Profile{Unit: s.cfg.Unit, Nodes: []parser.NodeProfile{*np}}
	return &Profile{Profile: parsed, Duration: np.Duration, OverheadFraction: overhead}, nil
}
