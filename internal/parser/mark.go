package parser

import (
	"sort"
	"time"
)

// Mark is a position in a Builder's stream, taken between two batches: a
// time range is two of them, and SnapshotRange profiles what lies between.
// It remembers, per function, what a Snapshot taken at that moment reports
// as TotalTime — spilled and resident spans, open invocations run up to T
// — and as Calls, so that a range's figures are differences of integers:
// an invocation open across the mark gives each side its clipped length,
// and consecutive ranges sum to the all-time profile exactly. TotalTime is
// a difference of snapshots rather than of what was spilled because
// spilling lags the stream by two batches and never sees an invocation
// that is still open.
//
// The per-sensor statistics of a range are summarised from the contiguous
// part of each function's value list between the two marks' positions in
// it. A position is known once every sample stamped up to T is settled:
// Fold seals the mark when the boundary passes T, and a SnapshotRange that
// comes earlier works the position out for itself.
//
// A Mark costs a few words per function and sensor and is the owner's to
// keep or drop; it is only good for the builder that made it.
type Mark struct {
	// T is the newest timestamp the builder had seen.
	T time.Duration

	dropped uint64
	funcs   []markFunc // by FuncID: the functions the builder knew
	// pos holds, once sealed, per function and sensor how many of the
	// function's settled values were stamped at or before T: sensors to a
	// function, functions and sensors that came later have none.
	sealed  bool
	sensors int
	pos     []int
}

type markFunc struct {
	total time.Duration
	calls int64
}

// Mark takes the builder's current position. Call it between batches.
func (b *Builder) Mark() *Mark {
	c := b.spans()
	c.runOpen()
	m := &Mark{T: b.duration, dropped: b.dropped, funcs: make([]markFunc, len(c.funcs))}
	for fid := range c.funcs {
		m.funcs[fid] = markFunc{total: c.total(fid), calls: c.funcs[fid].calls}
	}
	b.unsealed = append(b.unsealed, m)
	return m
}

// fn returns what the mark remembers of one function; nothing of one the
// builder did not know yet, or at the origin (a nil mark).
func (m *Mark) fn(fid int) markFunc {
	if m == nil || fid >= len(m.funcs) {
		return markFunc{}
	}
	return m.funcs[fid]
}

// at returns the mark's position in one function's value list for a
// sensor.
func (m *Mark) at(fid, sid int) int {
	if m == nil || sid >= m.sensors || fid*m.sensors+sid >= len(m.pos) {
		return 0
	}
	return m.pos[fid*m.sensors+sid]
}

// seal starts recording positions for funcs functions and sensors sensors;
// sealFunc fills them in, a function at a time.
func (m *Mark) seal(funcs, sensors int) {
	m.sealed, m.sensors, m.pos = true, sensors, make([]int, funcs*sensors)
}

// sealFunc records where one function's value lists stand.
func (m *Mark) sealFunc(fid int, vals [][]float64) {
	for sid, v := range vals {
		m.pos[fid*m.sensors+sid] = len(v)
	}
}

// splitDue cuts due samples — per sensor id, in time order — into those
// stamped at or before t and the rest.
func splitDue(due [][]Sample, t time.Duration) (head, tail [][]Sample) {
	if due == nil {
		return nil, nil
	}
	head, tail = make([][]Sample, len(due)), make([][]Sample, len(due))
	for sid, s := range due {
		n := upTo(s, t)
		head[sid], tail[sid] = s[:n], s[n:]
	}
	return head, tail
}

// upTo returns how many of the samples, in time order, are stamped at or
// before t.
func upTo(s []Sample, t time.Duration) int {
	return sort.Search(len(s), func(i int) bool { return s[i].TS > t })
}
