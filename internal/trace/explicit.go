package trace

// Explicit-timestamp recording.
//
// Live profiling stamps events with the tracer's clock at call time. The
// simulated cluster instead executes ranks in *virtual* time: each rank
// advances its own logical clock as its workload's cost model dictates,
// so events must carry caller-supplied timestamps. These variants bypass
// the clock; within a lane, timestamps are clamped to be monotonic (a
// regression indicates a simulation bug upstream, but the trace must stay
// well-formed for the codec).

import "time"

// clampLocked enforces per-lane monotonicity against the lane's most
// recent event. Callers hold l.mu.
func (l *Lane) clampLocked(ts time.Duration) time.Duration {
	if n := len(l.buf); n > 0 && ts < l.buf[n-1].TS {
		return l.buf[n-1].TS
	}
	return ts
}

// recordAt clamps e's timestamp and records it under one lock.
func (l *Lane) recordAt(e Event) {
	l.mu.Lock()
	e.TS = l.clampLocked(e.TS)
	l.recordLocked(e)
	l.mu.Unlock()
}

// EnterAt records a function entry at an explicit timestamp.
func (l *Lane) EnterAt(fid uint32, ts time.Duration) {
	l.mu.Lock()
	l.enterLocked(fid, l.clampLocked(ts))
	l.mu.Unlock()
}

// ExitAt records a function exit at an explicit timestamp; same stack
// validation as Exit.
func (l *Lane) ExitAt(fid uint32, ts time.Duration) error {
	l.mu.Lock()
	err := l.exitLocked(fid, l.clampLocked(ts))
	l.mu.Unlock()
	return err
}

// MarkerAt records an annotation at an explicit timestamp.
func (l *Lane) MarkerAt(name string, ts time.Duration) {
	fid := l.tracer.RegisterFunc(name)
	l.recordAt(Event{TS: ts, Lane: l.id, Kind: KindMarker, FuncID: fid})
}

// SampleAt records a temperature sample at an explicit timestamp on lane 0.
func (t *Tracer) SampleAt(sid uint32, tempC float64, ts time.Duration) {
	t.lane0.recordAt(Event{TS: ts, Lane: 0, Kind: KindSample, SensorID: sid, ValueC: tempC})
}

// MarkerAt records an annotation at an explicit timestamp on lane 0.
func (t *Tracer) MarkerAt(name string, ts time.Duration) {
	fid := t.RegisterFunc(name)
	t.lane0.recordAt(Event{TS: ts, Lane: 0, Kind: KindMarker, FuncID: fid})
}
