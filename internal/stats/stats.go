// Package stats provides the descriptive statistics Tempest reports for
// every (function, sensor) pair: Min, Avg, Max, standard deviation,
// variance, median and mode — the seven columns of the paper's Figure 2a
// and Tables 2–3 — plus the streaming accumulator the parser folds
// samples into and the least-squares fit behind its trend detection.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by batch routines when given no samples.
var ErrEmpty = errors.New("stats: no samples")

// Summary holds the seven statistics Tempest prints per sensor per
// function. Values are in the same unit as the input samples
// (degrees Fahrenheit for temperature data).
type Summary struct {
	N   int     // number of samples
	Min float64 // minimum sample
	Avg float64 // arithmetic mean
	Max float64 // maximum sample
	Sdv float64 // population standard deviation
	Var float64 // population variance
	Med float64 // median (lower of the two middle samples for even N)
	Mod float64 // mode (smallest value among the most frequent)
	Sum float64 // sum of samples
}

// Summarize computes a Summary over samples. It returns ErrEmpty when
// samples is empty. The input slice is not modified.
func Summarize(samples []float64) (Summary, error) {
	if len(samples) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(samples), Min: samples[0], Max: samples[0]}
	for _, v := range samples {
		s.Sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Avg = s.Sum / float64(s.N)
	var ss float64
	for _, v := range samples {
		d := v - s.Avg
		ss += d * d
	}
	s.Var = ss / float64(s.N)
	s.Sdv = math.Sqrt(s.Var)

	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Med = medianSorted(sorted)
	s.Mod = modeSorted(sorted)
	return s, nil
}

// medianSorted returns the median of a sorted, non-empty slice. Like the
// paper's tables (where Med always equals an observed reading), it picks
// the lower middle sample for even N rather than interpolating.
func medianSorted(sorted []float64) float64 {
	return sorted[(len(sorted)-1)/2]
}

// modeSorted returns the mode of a sorted, non-empty slice: the value of
// the longest run of equal samples, ties broken toward the smallest value.
func modeSorted(sorted []float64) float64 {
	mode := sorted[0]
	bestRun, run := 1, 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			run++
		} else {
			run = 1
		}
		if run > bestRun {
			bestRun = run
			mode = sorted[i]
		}
	}
	return mode
}

// Accumulator is a streaming single-pass accumulator for Min/Avg/Max/Sdv/
// Var using Welford's algorithm. Median and mode need the sample set, so
// Accumulator optionally retains samples; disable retention for unbounded
// streams where only moment statistics are needed.
//
// The zero value is ready to use and retains samples.
type Accumulator struct {
	n        int
	min, max float64
	mean, m2 float64
	sum      float64
	noRetain bool
	samples  []float64
}

// NewAccumulator returns an accumulator. If retainSamples is false the
// accumulator keeps O(1) state and Summary's Med/Mod fields are NaN.
func NewAccumulator(retainSamples bool) *Accumulator {
	return &Accumulator{noRetain: !retainSamples}
}

// Add folds one sample into the accumulator.
func (a *Accumulator) Add(v float64) {
	if a.n == 0 {
		a.min, a.max = v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	a.n++
	a.sum += v
	delta := v - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (v - a.mean)
	if !a.noRetain {
		a.samples = append(a.samples, v)
	}
}

// N reports the number of samples added.
func (a *Accumulator) N() int { return a.n }

// Variance reports the running population variance (0 for n < 1).
func (a *Accumulator) Variance() float64 {
	if a.n == 0 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// StdDev reports the running population standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Summary materialises the accumulated statistics. Med/Mod are NaN when
// sample retention is disabled. It returns ErrEmpty for no samples.
func (a *Accumulator) Summary() (Summary, error) {
	if a.n == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{
		N:   a.n,
		Min: a.min,
		Avg: a.mean,
		Max: a.max,
		Var: a.Variance(),
		Sdv: a.StdDev(),
		Sum: a.sum,
	}
	if a.noRetain {
		s.Med, s.Mod = math.NaN(), math.NaN()
		return s, nil
	}
	sorted := append([]float64(nil), a.samples...)
	sort.Float64s(sorted)
	s.Med = medianSorted(sorted)
	s.Mod = modeSorted(sorted)
	return s, nil
}

// LinearFit returns slope and intercept of the least-squares line y = a*x+b.
// The parser uses it to detect warming/cooling trends in per-node series
// (Figure 3's "steadily warming" nodes have positive slope).
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	if len(xs) != len(ys) {
		return 0, 0, fmt.Errorf("stats: %d xs but %d ys", len(xs), len(ys))
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return 0, 0, errors.New("stats: x has zero variance; fit undefined")
	}
	slope = sxy / sxx
	return slope, my - slope*mx, nil
}
