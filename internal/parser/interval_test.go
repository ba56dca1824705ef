package parser

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func iv(a, b int) Interval {
	return Interval{Start: time.Duration(a) * time.Second, End: time.Duration(b) * time.Second}
}

func TestMergeIntervalsBasic(t *testing.T) {
	got := MergeIntervals([]Interval{iv(5, 7), iv(1, 3), iv(2, 4), iv(9, 9)})
	want := []Interval{iv(1, 4), iv(5, 7), iv(9, 9)}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMergeIntervalsTouching(t *testing.T) {
	// Closed intervals sharing an endpoint merge.
	got := MergeIntervals([]Interval{iv(1, 2), iv(2, 3)})
	if len(got) != 1 || got[0] != iv(1, 3) {
		t.Errorf("got %v", got)
	}
}

func TestMergeIntervalsEmpty(t *testing.T) {
	if MergeIntervals(nil) != nil {
		t.Error("nil should merge to nil")
	}
}

func TestMergeDoesNotMutateInput(t *testing.T) {
	in := []Interval{iv(5, 6), iv(1, 2)}
	_ = MergeIntervals(in)
	if in[0] != iv(5, 6) {
		t.Error("input mutated")
	}
}

func TestTotalDuration(t *testing.T) {
	if got := TotalDuration([]Interval{iv(1, 3), iv(5, 6)}); got != 3*time.Second {
		t.Errorf("total = %v", got)
	}
	if TotalDuration(nil) != 0 {
		t.Error("empty total should be 0")
	}
}

func TestCoversAny(t *testing.T) {
	merged := MergeIntervals([]Interval{iv(1, 3), iv(5, 7)})
	cases := []struct {
		t    int
		want bool
	}{
		{0, false}, {1, true}, {2, true}, {3, true}, {4, false},
		{5, true}, {7, true}, {8, false},
	}
	for _, c := range cases {
		if got := CoversAny(merged, time.Duration(c.t)*time.Second); got != c.want {
			t.Errorf("CoversAny(%ds) = %v, want %v", c.t, got, c.want)
		}
	}
	if CoversAny(nil, 0) {
		t.Error("empty set covers nothing")
	}
}

// Property: after merging, intervals are sorted, non-overlapping, and
// cover exactly the same points as the input.
func TestMergeIntervalsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ivs := make([]Interval, 0, n%20)
		for i := 0; i < int(n%20); i++ {
			a := time.Duration(rng.Intn(100)) * time.Second
			b := a + time.Duration(rng.Intn(10))*time.Second
			ivs = append(ivs, Interval{Start: a, End: b})
		}
		merged := MergeIntervals(ivs)
		for i := 1; i < len(merged); i++ {
			if merged[i].Start <= merged[i-1].End {
				return false // overlap or touch survived
			}
		}
		// Point-wise equivalence on a 1-second grid.
		for s := 0; s <= 110; s++ {
			p := time.Duration(s) * time.Second
			inRaw := false
			for _, iv := range ivs {
				if iv.Contains(p) {
					inRaw = true
					break
				}
			}
			if inRaw != CoversAny(merged, p) {
				return false
			}
		}
		// Union length never exceeds sum of lengths.
		var sum time.Duration
		for _, iv := range ivs {
			sum += iv.Duration()
		}
		return TotalDuration(merged) <= sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestInsertIntervalMatchesMerge pins the online merge against the batch
// one: whatever order a set is inserted in — sorted (every insert takes
// the tail path), reversed (every insert takes the general path) or
// shuffled — the result is MergeIntervals of the whole set. The sets are
// dense enough to hold zero-length spans, spans that exactly touch a
// neighbour's end, and spans that swallow more than tailScan earlier
// ones, so the backward scan both finishes and hands over to the binary
// search.
func TestInsertIntervalMatchesMerge(t *testing.T) {
	insertAll := func(ivs []Interval) []Interval {
		var out []Interval
		for _, iv := range ivs {
			out = InsertInterval(out, iv)
		}
		return out
	}
	equal := func(a, b []Interval) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		span := time.Duration(2 + rng.Intn(6*n)) // small span: crowded and touching; large: sparse
		ivs := make([]Interval, n)
		for i := range ivs {
			a := time.Duration(rng.Int63n(int64(span)))
			var d time.Duration
			switch rng.Intn(4) {
			case 0: // zero length
			case 1:
				d = 1 // touches a neighbour that starts one tick later
			case 2:
				d = time.Duration(rng.Int63n(int64(span)/4 + 1))
			default:
				d = time.Duration(rng.Int63n(int64(span))) // swallows many
			}
			ivs[i] = Interval{Start: a, End: a + d}
		}
		want := MergeIntervals(ivs)

		byEnd := append([]Interval(nil), ivs...)
		sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].End < byEnd[j].End })
		reversed := make([]Interval, n)
		for i, iv := range byEnd {
			reversed[n-1-i] = iv
		}
		shuffled := append([]Interval(nil), ivs...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		for name, order := range map[string][]Interval{"by end": byEnd, "reversed": reversed, "shuffled": shuffled} {
			if got := insertAll(order); !equal(got, want) {
				t.Fatalf("seed %d, %d intervals inserted %s: got %d merged spans %v, want %d %v",
					seed, n, name, len(got), got, len(want), want)
			}
		}
	}

	// A long run of disjoint spans, then one that covers them all from
	// the tail: the scan must cross tailScan and still find the first.
	var run []Interval
	for i := 0; i < 10*tailScan; i++ {
		run = InsertInterval(run, Interval{Start: time.Duration(3 * i), End: time.Duration(3*i + 1)})
	}
	if len(run) != 10*tailScan {
		t.Fatalf("disjoint run merged: %d spans", len(run))
	}
	last := run[len(run)-1]
	if got := InsertInterval(append([]Interval(nil), run...), Interval{Start: 4, End: last.Start}); len(got) != 2 ||
		got[0] != run[0] || got[1] != (Interval{Start: 3, End: last.End}) {
		t.Fatalf("covering insert from the tail: %v", got)
	}
}
