// Package parser implements the Tempest parser: it merges a node's
// function-event timeline with its temperature samples and produces the
// per-function, per-sensor statistical profile the paper's Figure 2a and
// Tables 2–3 print (§3.2).
package parser

import (
	"sort"
	"time"
)

// Interval is a closed time span [Start, End].
type Interval struct {
	Start, End time.Duration
}

// Duration returns the interval's length.
func (iv Interval) Duration() time.Duration { return iv.End - iv.Start }

// Contains reports whether t lies within the closed interval.
func (iv Interval) Contains(t time.Duration) bool {
	return t >= iv.Start && t <= iv.End
}

// MergeIntervals unions possibly overlapping intervals into a minimal
// sorted set. Zero-length intervals are preserved (a function can enter
// and exit at the same virtual instant) unless covered by another span.
// The input is not modified.
func MergeIntervals(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := append([]Interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End < sorted[j].End
	})
	out := []Interval{sorted[0]}
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// tailScan is how far InsertInterval walks back from the tail before it
// gives the rest to a binary search.
const tailScan = 8

// InsertInterval folds one interval into an already-merged, sorted set,
// keeping it merged — the online counterpart of MergeIntervals. Because
// the merged decomposition of a union of closed intervals is unique,
// inserting intervals one at a time yields exactly MergeIntervals of the
// whole batch, in any insertion order. The slice is modified in place
// (and possibly reallocated).
//
// A node's exits arrive in non-decreasing timestamp order in every
// canonical (TS, lane) stream (Tracer.Drain, Scanner, shipped chunks),
// so a new interval almost always ends at or after the last one starts:
// nothing lies beyond it, and the run it touches is found by walking
// back from the tail — O(1) for an append or a back-to-back call, where
// two binary searches over 10⁵ spans were most of a fold. Anything else
// (Finish closing dangling frames, a batch merged out of order) takes
// the general path; iv against the list's tail decides, nothing else.
func InsertInterval(ivs []Interval, iv Interval) []Interval {
	// Candidates to merge with iv: closed intervals touch when
	// other.End >= iv.Start && other.Start <= iv.End — the run [lo, hi).
	n := len(ivs)
	lo, hi := n, n
	if n > 0 && ivs[n-1].Start <= iv.End {
		for lo > 0 && n-lo < tailScan && ivs[lo-1].End >= iv.Start {
			lo--
		}
		if n-lo == tailScan {
			lo = sort.Search(lo, func(i int) bool { return ivs[i].End >= iv.Start })
		}
	} else {
		lo = sort.Search(n, func(i int) bool { return ivs[i].End >= iv.Start })
		hi = sort.Search(n, func(i int) bool { return ivs[i].Start > iv.End })
	}
	if lo == hi {
		// Disjoint from everything: insert at lo.
		ivs = append(ivs, Interval{})
		copy(ivs[lo+1:], ivs[lo:])
		ivs[lo] = iv
		return ivs
	}
	// Merge the touching run [lo, hi) into iv.
	if ivs[lo].Start < iv.Start {
		iv.Start = ivs[lo].Start
	}
	if ivs[hi-1].End > iv.End {
		iv.End = ivs[hi-1].End
	}
	ivs[lo] = iv
	return append(ivs[:lo+1], ivs[hi:]...)
}

// TotalDuration sums the lengths of a merged interval set.
func TotalDuration(ivs []Interval) time.Duration {
	var sum time.Duration
	for _, iv := range ivs {
		sum += iv.Duration()
	}
	return sum
}

// CoversAny reports whether t falls into any interval of a merged, sorted
// set (binary search).
func CoversAny(ivs []Interval, t time.Duration) bool {
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].End >= t })
	return i < len(ivs) && ivs[i].Contains(t)
}
