package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the driver made into a layer. Spans of one
// chunk share Chunk; Parent is the span that caused this one (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Chunk  int    `json:"chunk,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is how many unit operations (events, calls) the span covers,
	// so per-operation costs can be derived from the file alone.
	Count int64 `json:"count,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, which is how the same code path runs
// untraced.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (0 when the log is nil).
func (l *spanLog) begin(name string, parent, chunk int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Chunk: chunk, Start: now})
	l.mu.Unlock()
	return id
}

// end closes span id, recording how many operations it covered.
func (l *spanLog) end(id int, count int64) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.spans[id-1].Count = count
	l.mu.Unlock()
}

// spanSum is the per-name aggregate of a log.
type spanSum struct {
	N      int
	Total  time.Duration // sum of span durations
	Self   time.Duration // Total minus the time child spans cover
	Count  int64
	perOps []float64 // each counted span's self time per operation, ns
}

// sums aggregates spans by name. Children never overlap each other here
// (each parent's children run one after another on one goroutine), so a
// span's self time is its duration minus its children's durations.
func (l *spanLog) sums() map[string]*spanSum {
	out := map[string]*spanSum{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans)+1)
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range l.spans {
		a := out[s.Name]
		if a == nil {
			a = &spanSum{}
			out[s.Name] = a
		}
		a.N++
		a.Total += time.Duration(s.End - s.Start)
		self := s.End - s.Start - child[s.ID]
		a.Self += time.Duration(self)
		a.Count += s.Count
		if s.Count > 0 {
			a.perOps = append(a.perOps, float64(self)/float64(s.Count))
		}
	}
	return out
}

// perOp is a name's self time per counted operation, in nanoseconds, at
// the quiet decile of its spans.
func (a *spanSum) perOp() float64 {
	if a == nil {
		return 0
	}
	return quietCost(a.perOps)
}

// outDir is where run artefacts go: span files and the run log.
const outDir = "_bench/out"

// write stores the spans as _bench/out/trace-<workload>.json.
func (l *spanLog) write(workload string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, l.spans})
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), raw, 0o644)
}
