package trace

// Explicit-timestamp recording.
//
// Live profiling stamps events with the tracer's clock at call time. The
// simulated cluster instead executes ranks in *virtual* time: each rank
// advances its own logical clock as its workload's cost model dictates,
// so events must carry caller-supplied timestamps. These variants bypass
// the clock; within a lane, timestamps are clamped to be monotonic like
// every other event's (see clampLocked).

import "time"

// EnterAt records a function entry at an explicit timestamp.
func (l *Lane) EnterAt(fid uint32, ts time.Duration) {
	l.mu.Lock()
	l.enterLocked(fid, ts)
	l.mu.Unlock()
}

// ExitAt records a function exit at an explicit timestamp; same stack
// validation as Exit.
func (l *Lane) ExitAt(fid uint32, ts time.Duration) error {
	_, err := l.ExitSpan(fid, ts)
	return err
}

// ExitSpan is ExitAt that also returns when the exited frame was entered,
// as its enter event was stamped: what a caller timing the call needs,
// without keeping the entry time itself.
func (l *Lane) ExitSpan(fid uint32, ts time.Duration) (entered time.Duration, err error) {
	l.mu.Lock()
	entered, err = l.exitLocked(fid, ts)
	l.mu.Unlock()
	return entered, err
}

// MarkerAt records an annotation at an explicit timestamp.
func (l *Lane) MarkerAt(name string, ts time.Duration) {
	fid := l.tracer.RegisterFunc(name)
	l.record(Event{TS: ts, Lane: l.id, Kind: KindMarker, FuncID: fid})
}

// SampleAt records a temperature sample at an explicit timestamp on lane 0.
func (t *Tracer) SampleAt(sid uint32, tempC float64, ts time.Duration) {
	t.lane0.record(Event{TS: ts, Lane: 0, Kind: KindSample, SensorID: sid, ValueC: tempC})
}

// MarkerAt records an annotation at an explicit timestamp on lane 0.
func (t *Tracer) MarkerAt(name string, ts time.Duration) {
	fid := t.RegisterFunc(name)
	t.lane0.record(Event{TS: ts, Lane: 0, Kind: KindMarker, FuncID: fid})
}
