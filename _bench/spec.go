package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and regression bounds are written down. The driver never
// repeats a unit; it looks it up here, and emitting a metric the file
// does not list is an error, so the file and the driver cannot drift.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (*benchSpec, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) metric(name string) (specMetric, bool) {
	for _, list := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one reported number in the shape the harness reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// account is one run's failure accounting: operations attempted,
// operations failed or lost, and why.
type account struct {
	Attempted int64
	Failed    int64
	Problems  []string
}

// result is one set of metrics (end-to-end or per-layer) of a run. The
// two sets of a traced run share one account.
type result struct {
	spec *benchSpec
	*account
	Metrics map[string]metricValue
	info    map[string]string
	// slowdown is how much slower than nominal the reference kernel ran in
	// this run (ref.go); set once the run's steps are done.
	slowdown float64
}

func newResult(spec *benchSpec, acct *account) *result {
	return &result{spec: spec, account: acct, Metrics: map[string]metricValue{}, info: map[string]string{}, slowdown: 1}
}

// emit records a metric under the unit BENCHMARK.json gives it.
func (r *result) emit(name string, v float64) {
	m, ok := r.spec.metric(name)
	if !ok {
		r.fail(1, "metric %q is not listed in BENCHMARK.json", name)
		return
	}
	r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
}

// note attaches the informational detail (sample count, tail
// percentile) printed beside a metric.
func (r *result) note(name, format string, args ...any) {
	r.info[name] = fmt.Sprintf(format, args...)
}

// attempt counts operations tried; fail counts n of them failed or lost
// and records why.
func (r *result) attempt(n int64) { r.Attempted += n }

func (r *result) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// timing emits the median of samples (seconds) in the metric's unit and
// notes the count and the highest percentile the sample supports.
func (r *result) timing(name string, secs []float64, perUnit float64) {
	r.emit(name, median(secs)*perUnit)
	r.note(name, "%s", describe(secs, perUnit))
}

// describe is the informational detail printed beside a timing: sample
// count, median and the highest percentile the sample supports.
func describe(secs []float64, perUnit float64) string {
	if p, v, ok := tailPercentile(secs); ok {
		return fmt.Sprintf("n=%d p50=%.4g p%g=%.4g", len(secs), median(secs)*perUnit, p, v*perUnit)
	}
	return fmt.Sprintf("n=%d p50=%.4g", len(secs), median(secs)*perUnit)
}

// quiet emits a pipeline timing the way every workload reports one. The
// measurement is made of many short samples (a window's median latency,
// a slice's rate, one restart) and the metric is their decile on the
// better side — the lower decile of a cost, the upper decile of a rate —
// brought to reference speed. The host this benchmark was built on slows
// allocating, cache-missing code by about 1.5× for stretches of tenths of
// a second to minutes at a time. The decile takes out the short
// stretches: interference only ever adds time, so the median of the same
// samples reads whichever state lasted longer in that run and moved by
// 60 % between runs of the same code where the decile moved by 4 %. The
// reference kernel takes out the long ones (README, "Why the quiet
// decile" and "At reference speed"). scale converts a sample to the
// metric's unit; detail is printed beside the value, with the median.
func (r *result) quiet(name string, samples []float64, scale float64, detail string) {
	q := 0.1 // quietCost
	if m, _ := r.spec.metric(name); m.Better == "higher" {
		q = 0.9
	}
	r.emitAtRef(name, quantile(samples, q)*scale)
	r.info[name] += fmt.Sprintf("; p%g of %d samples, median %.4g; %s", q*100, len(samples), median(samples)*scale, detail)
}

// emitAtRef records a pipeline timing at reference speed (ref.go): a
// cost divided by the run's slowdown, a rate multiplied by it. The value
// as measured is printed beside it.
func (r *result) emitAtRef(name string, measured float64) {
	v := measured / r.slowdown
	if m, _ := r.spec.metric(name); m.Better == "higher" {
		v = measured * r.slowdown
	}
	r.emit(name, v)
	r.note(name, "measured %.6g, slowdown %.4g", measured, r.slowdown)
}

// print writes the recorded metrics of list by name and unit, in listed
// order so related numbers sit together.
func (r *result) print(list []specMetric) {
	for _, m := range list {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Printf("  %-34s %14.6g %-8s %s\n", m.Name, v.Value, v.Unit, r.info[m.Name])
		}
	}
}

// missing lists the metrics of want that were not emitted and the
// emitted metrics that are not in want.
func (r *result) missing(want []specMetric) (absent, extra []string) {
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		if _, ok := r.Metrics[m.Name]; !ok {
			absent = append(absent, m.Name)
		}
	}
	for name := range r.Metrics {
		if !names[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return absent, extra
}
