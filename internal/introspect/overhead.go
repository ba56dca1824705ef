package introspect

import (
	"sync"
	"sync/atomic"
	"time"
)

// Accountant continuously computes instrumentation cost as a fraction
// of workload wall clock — the paper's §3.4 number (Tempest adds < 7 %
// where gprof adds < 10 %). Components contribute self-time two ways:
//
//   - AddSelf folds a finished slice of self-work (a drain pass, a
//     flush) into the running total; and
//   - Sample registers a cumulative-duration source polled at read time
//     (tempd's BusyTime), for components that already account their own
//     cost.
//
// Fraction is then total self-time over wall clock since Start. The
// accountant is safe for concurrent use; AddSelf is one atomic add.
type Accountant struct {
	startNS atomic.Int64 // wall-clock origin, UnixNano
	selfNS  atomic.Int64 // folded self-time

	mu      sync.Mutex
	sampled []func() time.Duration
}

// NewAccountant starts accounting now.
func NewAccountant() *Accountant {
	a := &Accountant{}
	a.startNS.Store(time.Now().UnixNano())
	return a
}

// AddSelf folds d of completed self-work into the total.
func (a *Accountant) AddSelf(d time.Duration) {
	if a == nil || d <= 0 {
		return
	}
	a.selfNS.Add(int64(d))
}

// Sample registers a cumulative self-time source polled at read time.
func (a *Accountant) Sample(fn func() time.Duration) {
	if a == nil || fn == nil {
		return
	}
	a.mu.Lock()
	a.sampled = append(a.sampled, fn)
	a.mu.Unlock()
}

// SelfTime reports total instrumentation self-time so far: the folded
// contributions plus every sampled source's current cumulative value.
func (a *Accountant) SelfTime() time.Duration {
	if a == nil {
		return 0
	}
	total := time.Duration(a.selfNS.Load())
	a.mu.Lock()
	sampled := append([]func() time.Duration(nil), a.sampled...)
	a.mu.Unlock()
	for _, fn := range sampled {
		total += fn()
	}
	return total
}

// Wall reports wall-clock time since the accountant started.
func (a *Accountant) Wall() time.Duration {
	if a == nil {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - a.startNS.Load())
}

// Fraction reports self-time over wall clock — the §3.4 overhead
// number. It is 0 until any wall time has elapsed.
func (a *Accountant) Fraction() float64 {
	wall := a.Wall()
	if wall <= 0 {
		return 0
	}
	return a.SelfTime().Seconds() / wall.Seconds()
}

// Register exposes the accountant as a sampled gauge on r.
func (a *Accountant) Register(r *Registry, name, help string) {
	if a == nil {
		return
	}
	r.Func(name, help, a.Fraction)
}
