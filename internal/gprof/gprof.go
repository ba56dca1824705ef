// Package gprof implements a gprof-style flat profiler, the baseline
// Tempest is validated against in §3.4.
//
// gprof attributes CPU time to functions by sampling the program counter
// into fixed buckets and counting calls via an mcount hook; its output is
// the per-function *total*, with no timeline. §3.1 explains why that is
// insufficient for thermal work: "gprof does not pinpoint which function
// was executing at time X". This package provides
//
//   - Profiler: the live call-counting hook (mcount-like Enter/Exit),
//     used to measure baseline overhead; and
//   - FromTrace: the exact flat profile computed from a Tempest trace, so
//     tests can assert the two tools agree on per-function time the way
//     the paper's validation does.
package gprof

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tempest/internal/trace"
)

// Entry is one row of a flat profile.
type Entry struct {
	Name  string
	Calls int64
	// Self is time attributed to the function itself, excluding callees.
	Self time.Duration
	// Cumulative is inclusive time (function plus callees).
	Cumulative time.Duration
	// SelfPercent is Self as a share of the profile's total self time.
	SelfPercent float64
}

// Profiler is the live mcount role: Enter/Exit maintain a per-lane call
// stack and count calls.
type Profiler struct {
	mu     sync.Mutex
	stacks map[int][]string // lane → stack of function names
	// calls is the count mcount keeps. Nothing here reads it, but its
	// cost is part of the baseline §3.4's overhead comparison measures.
	calls map[string]int64
}

// New builds an empty profiler.
func New() *Profiler {
	return &Profiler{
		stacks: make(map[int][]string),
		calls:  make(map[string]int64),
	}
}

// Enter records a call on the lane's stack.
func (p *Profiler) Enter(lane int, name string) {
	p.mu.Lock()
	p.stacks[lane] = append(p.stacks[lane], name)
	p.calls[name]++
	p.mu.Unlock()
}

// Exit pops the lane's stack; unbalanced exits are an error.
func (p *Profiler) Exit(lane int, name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stacks[lane]
	if len(st) == 0 {
		return fmt.Errorf("gprof: exit %q on empty stack (lane %d)", name, lane)
	}
	top := st[len(st)-1]
	p.stacks[lane] = st[:len(st)-1]
	if top != name {
		return fmt.Errorf("gprof: exit %q but %q is open (lane %d)", name, top, lane)
	}
	return nil
}

func sortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Self != entries[j].Self {
			return entries[i].Self > entries[j].Self
		}
		return entries[i].Name < entries[j].Name
	})
}

// FromTrace computes the exact flat profile of a Tempest trace: per
// function, the call count, exclusive (self) and inclusive (cumulative)
// time, by walking each lane's enter/exit nesting. Functions still open at
// the final event are charged up to that event's timestamp.
func FromTrace(tr *trace.Trace) ([]Entry, error) {
	if tr == nil {
		return nil, errors.New("gprof: nil trace")
	}
	type frame struct {
		fid       uint32
		enter     time.Duration
		childTime time.Duration
	}
	stacks := make(map[uint32][]frame)
	selfT := make(map[uint32]time.Duration)
	cumT := make(map[uint32]time.Duration)
	calls := make(map[uint32]int64)
	var last time.Duration

	for i, e := range tr.Events {
		if e.TS > last {
			last = e.TS
		}
		switch e.Kind {
		case trace.KindEnter:
			stacks[e.Lane] = append(stacks[e.Lane], frame{fid: e.FuncID, enter: e.TS})
			calls[e.FuncID]++
		case trace.KindExit:
			st := stacks[e.Lane]
			if len(st) == 0 {
				return nil, fmt.Errorf("gprof: event %d: exit with empty stack on lane %d", i, e.Lane)
			}
			top := st[len(st)-1]
			if top.fid != e.FuncID {
				return nil, fmt.Errorf("gprof: event %d: exit func %d but %d is open", i, e.FuncID, top.fid)
			}
			stacks[e.Lane] = st[:len(st)-1]
			inclusive := e.TS - top.enter
			cumT[top.fid] += inclusive
			selfT[top.fid] += inclusive - top.childTime
			if len(stacks[e.Lane]) > 0 {
				parent := &stacks[e.Lane][len(stacks[e.Lane])-1]
				parent.childTime += inclusive
			}
		}
	}
	// Close dangling frames at the last observed timestamp.
	for lane, st := range stacks {
		for len(st) > 0 {
			top := st[len(st)-1]
			st = st[:len(st)-1]
			inclusive := last - top.enter
			cumT[top.fid] += inclusive
			selfT[top.fid] += inclusive - top.childTime
			if len(st) > 0 {
				st[len(st)-1].childTime += inclusive
			}
		}
		stacks[lane] = nil
	}

	var totalSelf time.Duration
	for _, d := range selfT {
		totalSelf += d
	}
	entries := make([]Entry, 0, len(calls))
	for fid, n := range calls {
		name, err := tr.Sym.Name(fid)
		if err != nil {
			return nil, err
		}
		pct := 0.0
		if totalSelf > 0 {
			pct = float64(selfT[fid]) / float64(totalSelf) * 100
		}
		entries = append(entries, Entry{
			Name: name, Calls: n,
			Self: selfT[fid], Cumulative: cumT[fid],
			SelfPercent: pct,
		})
	}
	sortEntries(entries)
	return entries, nil
}
