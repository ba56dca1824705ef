package parser

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tempest/internal/stats"
	"tempest/internal/thermal"
	"tempest/internal/trace"
)

// Unit selects the temperature unit of reported statistics. The paper's
// figures and tables use Fahrenheit.
type Unit int

// Temperature units.
const (
	Fahrenheit Unit = iota
	Celsius
)

func (u Unit) convert(c float64) float64 {
	if u == Fahrenheit {
		return thermal.CToF(c)
	}
	return c
}

// String implements fmt.Stringer.
func (u Unit) String() string {
	if u == Fahrenheit {
		return "°F"
	}
	return "°C"
}

// Options configures parsing.
type Options struct {
	// Unit of reported statistics; default Fahrenheit.
	Unit Unit
	// MidStream tolerates attaching to an event stream already in
	// progress: an Exit without a matching Enter on its lane (the
	// invocation began before this stream's first event) is dropped
	// instead of poisoning the Builder. The collector's durable-store
	// replay and retention compactor rebuild profiles from windows cut at
	// arbitrary points, where such orphan exits are expected, not
	// corruption.
	MidStream bool
}

// Sample is one temperature reading on one sensor.
type Sample struct {
	TS    time.Duration
	Value float64 // in the profile's Unit
}

// FuncProfile is one function's row in the Tempest report.
type FuncProfile struct {
	Name string
	// TotalTime is the union of the function's inclusive intervals —
	// "the amount of time spent in that particular function" (Fig 2a);
	// concurrent lanes and recursion are not double-counted.
	TotalTime time.Duration
	// Calls counts entries.
	Calls int64
	// Intervals is the merged inclusive on-stack time of the function —
	// from a Builder whose owner calls Fold, only the spans still
	// resident: those of its last three batches and of open invocations.
	// TotalTime and Sensors cover the whole stream either way.
	Intervals []Interval
	// Sensors holds one Summary per sensor over samples falling inside
	// the function's intervals; entries with N==0 had no samples.
	Sensors []stats.Summary
	// Significant is false when TotalTime is small relative to the
	// sampling interval (the foo2 rule of Figure 2a) or no samples fell
	// inside the function's execution.
	Significant bool
}

// HealthEvent is one sensor health transition recorded by tempd as a
// "sensor-health:<id>:<state>" marker — the degraded-mode annotations
// that explain gaps in a sensor's sample timeline.
type HealthEvent struct {
	TS       time.Duration
	SensorID int
	State    string // "healthy", "suspect", "quarantined", "probing", "recovered"
}

// NodeProfile is the parsed result for one node's trace.
type NodeProfile struct {
	NodeID      uint32
	SensorNames []string
	// Functions sorted by TotalTime descending (the paper's listing order).
	Functions []FuncProfile
	// Samples per sensor id, time-ordered, in the profile's Unit.
	Samples [][]Sample
	// HealthEvents are sensor health transitions in time order; a
	// quarantined→recovered pair brackets a window where that sensor's
	// samples are missing by design, not by data loss.
	HealthEvents []HealthEvent
	// Duration is the time of the last event in the trace.
	Duration time.Duration
	// DroppedEvents totals KindDrop annotations (buffer pressure, §3.3).
	DroppedEvents uint64
	// Truncated reports that the source trace ended in a torn tail and
	// only the intact prefix was salvaged (crash-safe recovery mode).
	Truncated      bool
	Unit           Unit
	SampleInterval time.Duration
}

// Profile is the full parse result across nodes.
type Profile struct {
	Nodes []NodeProfile
	Unit  Unit
}

// sensorMarkerPrefix matches tempd's announcement markers.
const sensorMarkerPrefix = "sensor:"

// healthMarkerPrefix matches tempd's degraded-mode markers.
const healthMarkerPrefix = "sensor-health:"

// Parse merges one trace into a NodeProfile. It is a thin wrapper over
// the streaming Builder: the whole event slice is fed as one batch and
// finished, so batch and streamed parses share one implementation and
// produce identical profiles.
func Parse(tr *trace.Trace, opts Options) (*NodeProfile, error) {
	if tr == nil {
		return nil, errNilTrace
	}
	b := NewBuilder(tr.NodeID, tr.Sym, opts)
	b.SetTruncated(tr.Truncated)
	if err := b.Add(tr.Events); err != nil {
		return nil, err
	}
	return b.Finish()
}

// ParseAll parses one trace per node into a combined profile, fanning
// the traces across a worker pool (one worker per core, at most one per
// trace). Results land at their input index and the lowest-index error
// wins, so output and failure are deterministic regardless of worker
// scheduling.
func ParseAll(traces []*trace.Trace, opts Options) (*Profile, error) {
	if len(traces) == 0 {
		return nil, errors.New("parser: no traces")
	}
	p := &Profile{Unit: opts.Unit, Nodes: make([]NodeProfile, len(traces))}
	errs := make([]error, len(traces))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(traces) {
		workers = len(traces)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				np, err := Parse(traces[i], opts)
				if err != nil {
					errs[i] = err
					continue
				}
				p.Nodes[i] = *np
			}
		}()
	}
	for i := range traces {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("parser: trace %d: %w", i, err)
		}
	}
	return p, nil
}

// parseSensorMarker decodes "sensor:<id>:<label>".
func parseSensorMarker(name string) (id int, label string, ok bool) {
	if !strings.HasPrefix(name, sensorMarkerPrefix) {
		return 0, "", false
	}
	rest := name[len(sensorMarkerPrefix):]
	k := strings.IndexByte(rest, ':')
	if k < 0 {
		return 0, "", false
	}
	id, err := strconv.Atoi(rest[:k])
	if err != nil || id < 0 {
		return 0, "", false
	}
	return id, rest[k+1:], true
}

// parseHealthMarker decodes "sensor-health:<id>:<state>".
func parseHealthMarker(name string) (id int, state string, ok bool) {
	if !strings.HasPrefix(name, healthMarkerPrefix) {
		return 0, "", false
	}
	rest := name[len(healthMarkerPrefix):]
	k := strings.IndexByte(rest, ':')
	if k < 0 {
		return 0, "", false
	}
	id, err := strconv.Atoi(rest[:k])
	if err != nil || id < 0 || rest[k+1:] == "" {
		return 0, "", false
	}
	return id, rest[k+1:], true
}

// detectInterval estimates the sampling period as the median gap between
// consecutive samples of the densest sensor; falls back to 250 ms. Gaps
// overlapping one of that sensor's quarantine windows (bracketed by
// quarantined→recovered/healthy HealthEvents) are excluded: samples are
// missing there by design, and counting the hole would inflate the
// median — and with it the significance threshold — after any sensor
// fault.
func detectInterval(samples [][]Sample, health []HealthEvent) time.Duration {
	const fallback = 250 * time.Millisecond
	var best []Sample
	bestID := -1
	for id, s := range samples {
		if len(s) > len(best) {
			best = s
			bestID = id
		}
	}
	if len(best) < 2 {
		return fallback
	}
	quarantined := quarantineWindows(health, bestID)
	gaps := make([]time.Duration, 0, len(best)-1)
	for i := 1; i < len(best); i++ {
		if overlapsAny(quarantined, best[i-1].TS, best[i].TS) {
			continue
		}
		gaps = append(gaps, best[i].TS-best[i-1].TS)
	}
	if len(gaps) == 0 {
		return fallback
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	med := gaps[(len(gaps)-1)/2]
	if med <= 0 {
		return fallback
	}
	return med
}

// quarantineWindows extracts one sensor's quarantine spans from its
// time-ordered health transitions. A window opens at "quarantined",
// stays open through "suspect"/"probing", and closes at the next
// "recovered" or "healthy"; a window still open at trace end extends
// indefinitely.
func quarantineWindows(health []HealthEvent, sensor int) []Interval {
	var wins []Interval
	var openAt time.Duration
	open := false
	for _, h := range health {
		if h.SensorID != sensor {
			continue
		}
		switch h.State {
		case "quarantined":
			if !open {
				openAt, open = h.TS, true
			}
		case "recovered", "healthy":
			if open {
				wins = append(wins, Interval{Start: openAt, End: h.TS})
				open = false
			}
		}
	}
	if open {
		wins = append(wins, Interval{Start: openAt, End: time.Duration(1<<63 - 1)})
	}
	return wins
}

// overlapsAny reports whether the open gap (from, to) intersects any of
// the sorted windows.
func overlapsAny(wins []Interval, from, to time.Duration) bool {
	for _, w := range wins {
		if from < w.End && to > w.Start {
			return true
		}
	}
	return false
}

// Function looks a parsed function up by name.
func (np *NodeProfile) Function(name string) (*FuncProfile, bool) {
	for i := range np.Functions {
		if np.Functions[i].Name == name {
			return &np.Functions[i], true
		}
	}
	return nil, false
}

// Series returns the (times, values) of one sensor's full timeline — the
// data behind the temperature-profile plots (Figures 2b, 3, 4).
func (np *NodeProfile) Series(sensor int) ([]time.Duration, []float64, error) {
	if sensor < 0 || sensor >= len(np.Samples) {
		return nil, nil, fmt.Errorf("parser: sensor %d out of range [0,%d)", sensor, len(np.Samples))
	}
	ts := make([]time.Duration, len(np.Samples[sensor]))
	vs := make([]float64, len(np.Samples[sensor]))
	for i, s := range np.Samples[sensor] {
		ts[i] = s.TS
		vs[i] = s.Value
	}
	return ts, vs, nil
}

// Trend fits a line to a sensor's series and returns °/second — positive
// slopes are the "steadily warming" nodes of Figure 3.
func (np *NodeProfile) Trend(sensor int) (float64, error) {
	ts, vs, err := np.Series(sensor)
	if err != nil {
		return 0, err
	}
	if len(ts) < 2 {
		return 0, errors.New("parser: not enough samples for a trend")
	}
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = t.Seconds()
	}
	slope, _, err := stats.LinearFit(xs, vs)
	return slope, err
}
