package critpath

import (
	"sort"
	"time"
)

// Summary is the critical-path report for one analysis: where the
// parallel code serialized, which functions caused the waiting, and how
// each lane split its time. All durations are seconds (JSON-friendly,
// matching the collector API's existing *_s convention).
type Summary struct {
	// DurationS is the sweep clock at snapshot time (latest event seen).
	DurationS float64 `json:"duration_s"`
	// Events is how many trace events were consumed.
	Events uint64 `json:"events"`
	// Lanes is every observed lane's busy/wait/off split, ordered by
	// (node, lane).
	Lanes []LaneSummary `json:"lanes"`
	// Functions ranks non-wait functions by serialization seconds (then
	// caused wait) — the critical-path answer printed alongside the
	// heat ranking. Functions with no serialization cost are omitted.
	Functions []FuncCost `json:"functions"`
	// Ops is the per-wait-function (barrier/collective/point-to-point)
	// wait attribution table, ordered by total wait descending.
	Ops []OpCost `json:"ops"`
	// SerialS is total time exactly one lane was busy while at least one
	// other waited; SerialFraction divides by DurationS.
	SerialS        float64 `json:"serial_s"`
	SerialFraction float64 `json:"serial_fraction"`
	// DroppedEvents totals KindDrop annotations seen by the analyzer.
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
	// StackAnomalies counts tolerated orphan/mismatched exits;
	// OrderAnomalies counts clamped cross-lane timestamp regressions.
	// Non-zero values mean the input was torn or mid-stream and the
	// numbers below are best-effort, not exact.
	StackAnomalies uint64 `json:"stack_anomalies,omitempty"`
	OrderAnomalies uint64 `json:"order_anomalies,omitempty"`
}

// LaneSummary is one lane's time split.
type LaneSummary struct {
	Node uint32 `json:"node"`
	Lane uint32 `json:"lane"`
	// BusyS/WaitS/OffS partition the analysis duration: compute, wait-
	// class (MPI) time, and everything else (before the lane's first
	// event, after its last exit, or between empty-stack spans).
	BusyS float64 `json:"busy_s"`
	WaitS float64 `json:"wait_s"`
	OffS  float64 `json:"off_s"`
	// WaitShare is WaitS/(BusyS+WaitS), 0 when the lane never ran.
	WaitShare float64 `json:"wait_share"`
	// CausedWaitS is wait-seconds accrued on other lanes while this lane
	// computed — the straggler score: the lane everyone waits for has
	// the largest value.
	CausedWaitS float64 `json:"caused_wait_s"`
}

// FuncCost is one function's critical-path cost.
type FuncCost struct {
	Name  string `json:"name"`
	Calls int64  `json:"calls"`
	// SerialS is time this function held the only busy lane while at
	// least one other lane waited; Windows/LongestS describe the spans.
	SerialS  float64 `json:"serial_s"`
	Windows  int64   `json:"windows"`
	LongestS float64 `json:"longest_s"`
	// CausedWaitS is wait-seconds on other lanes charged to this
	// function while it ran on any busy lane (the W/B integral) — the
	// barrier-imbalance attribution: a staggered initializer accumulates
	// the whole fleet's barrier wait here.
	CausedWaitS float64 `json:"caused_wait_s"`
}

// OpCost is one wait-class function's aggregate wait attribution.
type OpCost struct {
	Name  string `json:"name"`
	Calls int64  `json:"calls"`
	// TotalWaitS sums every lane's time inside the op. MaxLaneWaitS and
	// MinLaneWaitS bracket the per-lane split; ImbalanceS is
	// TotalWaitS − lanes×MinLaneWaitS — the part of the wait caused by
	// stagger rather than the op's intrinsic cost.
	TotalWaitS   float64 `json:"total_wait_s"`
	MaxLaneWaitS float64 `json:"max_lane_wait_s"`
	MinLaneWaitS float64 `json:"min_lane_wait_s"`
	ImbalanceS   float64 `json:"imbalance_s"`
	// StragglerNode/StragglerLane is the lane that waited least — it
	// arrived last, so the others were waiting for it.
	StragglerNode uint32 `json:"straggler_node"`
	StragglerLane uint32 `json:"straggler_lane"`
}

// Straggler returns the lane with the highest caused-wait score, the
// cluster-wide "who is everyone waiting for" answer. ok is false when no
// lane caused any wait.
func (s *Summary) Straggler() (LaneSummary, bool) {
	best, ok := LaneSummary{}, false
	for _, l := range s.Lanes {
		if l.CausedWaitS > 0 && (!ok || l.CausedWaitS > best.CausedWaitS) {
			best, ok = l, true
		}
	}
	return best, ok
}

// Function looks a cost row up by name.
func (s *Summary) Function(name string) (FuncCost, bool) {
	for _, f := range s.Functions {
		if f.Name == name {
			return f, true
		}
	}
	return FuncCost{}, false
}

// Op looks a wait-op row up by name.
func (s *Summary) Op(name string) (OpCost, bool) {
	for _, o := range s.Ops {
		if o.Name == name {
			return o, true
		}
	}
	return OpCost{}, false
}

// Summary materializes the analysis so far without consuming the
// analyzer: open states are treated as held until the latest event seen
// (exactly how Builder.Snapshot treats open frames), pending charges are
// added at read time, and the analyzer keeps accumulating afterwards —
// the live straggler view's refresh primitive.
func (a *Analyzer) Summary() *Summary {
	s := &Summary{
		DurationS:      a.now.Seconds(),
		Events:         a.events,
		SerialS:        a.serTotal.Seconds(),
		DroppedEvents:  a.dropped,
		StackAnomalies: a.stackAnomalies,
		OrderAnomalies: a.orderAnomalies,
	}

	// Pending per-function charges: open serialization window, and the
	// caused-wait integral snapshot of every currently-busy lane. These
	// are read-time additions — nothing in the analyzer mutates.
	pendSerial := map[*funcAcc]time.Duration{}
	pendWindows := map[*funcAcc]int64{}
	if a.serOpen {
		if d := a.now - a.serStart; d > 0 {
			pendSerial[a.serFunc] += d
			pendWindows[a.serFunc]++
			s.SerialS += d.Seconds()
		}
	}
	pendCaused := map[*funcAcc]float64{}

	lanes := a.sortedLanes()
	for _, l := range lanes {
		busy, wait := l.busy, l.wait
		caused := l.causedWait
		held := a.now - l.stateSince
		switch l.state {
		case Busy:
			busy += held
			pend := a.waitInt - l.waitSnap
			caused += pend
			pendCaused[l.cur] += pend
		case Wait:
			wait += held
		}
		ls := LaneSummary{
			Node:        l.node,
			Lane:        l.id,
			BusyS:       busy.Seconds(),
			WaitS:       wait.Seconds(),
			OffS:        (a.now - busy - wait).Seconds(),
			CausedWaitS: caused,
		}
		if busy+wait > 0 {
			ls.WaitShare = wait.Seconds() / (busy + wait).Seconds()
		}
		s.Lanes = append(s.Lanes, ls)
	}

	for _, f := range a.funcs {
		if f.op != nil {
			continue
		}
		fc := FuncCost{
			Name:        f.name,
			Calls:       f.calls,
			SerialS:     (f.serial + pendSerial[f]).Seconds(),
			Windows:     f.windows + pendWindows[f],
			LongestS:    f.longest.Seconds(),
			CausedWaitS: f.causedWait + pendCaused[f],
		}
		if open := pendSerial[f]; open > f.longest {
			fc.LongestS = open.Seconds()
		}
		if fc.SerialS == 0 && fc.CausedWaitS == 0 {
			continue
		}
		s.Functions = append(s.Functions, fc)
	}
	sort.Slice(s.Functions, func(i, j int) bool {
		fi, fj := s.Functions[i], s.Functions[j]
		if fi.SerialS != fj.SerialS {
			return fi.SerialS > fj.SerialS
		}
		if fi.CausedWaitS != fj.CausedWaitS {
			return fi.CausedWaitS > fj.CausedWaitS
		}
		return fi.Name < fj.Name
	})

	s.Ops = a.opCosts(lanes)
	if a.now > 0 {
		s.SerialFraction = s.SerialS / a.now.Seconds()
	}
	return s
}

// sortedLanes returns every lane of every node, ordered by (node, lane).
func (a *Analyzer) sortedLanes() []*lane {
	var lanes []*lane
	for _, nf := range a.nodes {
		for _, l := range nf.lanes {
			if l != nil {
				lanes = append(lanes, l)
			}
		}
	}
	sort.Slice(lanes, func(i, j int) bool {
		return laneKey(lanes[i].node, lanes[i].id) < laneKey(lanes[j].node, lanes[j].id)
	})
	return lanes
}

// opCosts aggregates per-lane wait into per-op rows, folding in the
// currently-open wait of any lane still inside an op.
func (a *Analyzer) opCosts(sortedLanes []*lane) []OpCost {
	type perOp struct {
		op       *opAcc
		total    time.Duration
		min, max time.Duration
		lanes    int
		straggle *lane // the lane of the minimum
	}
	agg := make([]perOp, len(a.ops))
	add := func(op *opAcc, l *lane, d time.Duration) {
		po := &agg[op.idx]
		if po.op == nil {
			*po = perOp{op: op, min: d, max: d, straggle: l}
		}
		po.total += d
		po.lanes++
		if d < po.min {
			po.min, po.straggle = d, l
		}
		if d > po.max {
			po.max = d
		}
	}
	for _, l := range sortedLanes {
		// A lane inside an op right now adds the open call's time to that
		// op's row — which may be the lane's only contact with the op.
		var open *opAcc
		if l.state == Wait {
			open = l.cur.op
		}
		for idx, w := range l.waitByOp {
			switch {
			case a.ops[idx] == open:
				add(open, l, w.d+a.now-l.stateSince)
				open = nil
			case w.seen:
				add(a.ops[idx], l, w.d)
			}
		}
		if open != nil {
			add(open, l, a.now-l.stateSince)
		}
	}
	out := make([]OpCost, 0, len(agg))
	for _, po := range agg {
		if po.op == nil {
			continue
		}
		out = append(out, OpCost{
			Name:          po.op.name,
			Calls:         po.op.calls,
			TotalWaitS:    po.total.Seconds(),
			MaxLaneWaitS:  po.max.Seconds(),
			MinLaneWaitS:  po.min.Seconds(),
			ImbalanceS:    (po.total - time.Duration(po.lanes)*po.min).Seconds(),
			StragglerNode: po.straggle.node,
			StragglerLane: po.straggle.id,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalWaitS != out[j].TotalWaitS {
			return out[i].TotalWaitS > out[j].TotalWaitS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// recordSegment appends one closed segment to a lane's bounded track,
// merging equal neighbours. When the cap is reached the track is halved
// (adjacent pairs merged), so resolution degrades while memory stays
// bounded and the amortized cost per transition stays O(1).
func (a *Analyzer) recordSegment(l *lane, seg Segment) {
	if seg.End <= seg.Start {
		return
	}
	if n := len(l.track); n > 0 {
		last := &l.track[n-1]
		if last.State == seg.State && last.Func == seg.Func && last.End == seg.Start {
			last.End = seg.End
			return
		}
	}
	if len(l.track) >= a.opts.MaxTrackSegments {
		l.track = halveTrack(l.track)
	}
	l.track = append(l.track, seg)
}

// halveTrack merges adjacent segment pairs in place, halving the
// track's resolution while preserving contiguous coverage. Each merged
// span takes the longer member's identity. Deterministic: it depends
// only on the track contents, which are chunking-independent, so
// streamed and batch analyses still render identical timelines.
func halveTrack(track []Segment) []Segment {
	out := track[:0]
	for i := 0; i < len(track); i += 2 {
		m := track[i]
		if i+1 < len(track) {
			n := track[i+1]
			if n.End-n.Start > m.End-m.Start {
				m.State, m.Func = n.State, n.Func
			}
			m.End = n.End
		}
		out = append(out, m)
	}
	return out
}

// Tracks returns the recorded per-lane timelines (nil unless
// Options.Timeline), ordered by (node, lane), each lane's open state
// extended to the sweep clock. Non-destructive, like Summary.
func (a *Analyzer) Tracks() []Track {
	if !a.opts.Timeline {
		return nil
	}
	lanes := a.sortedLanes()
	out := make([]Track, 0, len(lanes))
	for _, l := range lanes {
		t := Track{Node: l.node, Lane: l.id, Segments: append([]Segment(nil), l.track...)}
		if l.seen && a.now > l.stateSince && l.state != Off {
			open := Segment{Start: l.stateSince, End: a.now, State: l.state, Func: l.segName()}
			if n := len(t.Segments); n > 0 && t.Segments[n-1].State == open.State &&
				t.Segments[n-1].Func == open.Func && t.Segments[n-1].End == open.Start {
				t.Segments[n-1].End = open.End
			} else {
				t.Segments = append(t.Segments, open)
			}
		}
		out = append(out, t)
	}
	return out
}
