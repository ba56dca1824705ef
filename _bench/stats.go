package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of vs (mean of the two middle values for an
// even count), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quietCost is the quiet decile of cost samples (README, "Why the quiet
// decile"): the value every timing in this benchmark reports.
func quietCost(vs []float64) float64 { return quantile(vs, 0.1) }

// floorRank picks the sample floorCost reports: the floorRank-th fastest.
const floorRank = 5

// floorCost is what a single-threaded, CPU-bound sample costs when the
// host leaves it alone: the floorRank-th fastest of many short samples.
// Where every sample fits into a quiet moment (a timed walk lasts a
// third of a millisecond and a run has thousands) the fastest samples
// sit on a hard floor that repeated within 1.5 % over twelve runs whose
// lower deciles were 16 % apart. Not the very fastest, so that one odd
// sample cannot set the value. 0 for an empty slice.
func floorCost(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[min(floorRank, len(s))-1]
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics; 0 for an empty slice. vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles mirrors Python's statistics.quantiles(vs, n=4) (the
// "exclusive" method), because that is what the acceptance rule for this
// benchmark is written in; it needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// stddev is the sample standard deviation (0 below two values).
func stddev(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / float64(len(vs))
	var ss float64
	for _, v := range vs {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss / float64(len(vs)-1))
}

// tailPercentile names the highest percentile of n samples that still
// has at least ten samples beyond it (the rule the metrics guide fixes
// for reporting a tail), and returns that percentile of vs. ok is false
// when the sample is too small for any tail above the median.
func tailPercentile(vs []float64) (pct float64, value float64, ok bool) {
	n := len(vs)
	if n < 20 {
		return 0, 0, false
	}
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p, quantile(vs, p/100), true
		}
	}
	return 0, 0, false
}

// windowsOf groups samples by the time they were taken: sample i, taken
// at offset at[i] from the start of the measurement, lands in window
// at[i]/width. Empty windows are dropped.
func windowsOf(at []time.Duration, vs []float64, width time.Duration) [][]float64 {
	var out [][]float64
	idx := map[int64]int{}
	for i, v := range vs {
		k := int64(at[i] / width)
		j, ok := idx[k]
		if !ok {
			j = len(out)
			idx[k] = j
			out = append(out, nil)
		}
		out[j] = append(out[j], v)
	}
	return out
}
