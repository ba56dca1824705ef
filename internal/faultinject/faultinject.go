// Package faultinject is Tempest's deterministic fault-injection harness.
//
// The paper's evaluation runs tempd for hours against real hardware where
// sensors flake and the daemon is killed by the destructor's signal; a
// fleet adds nodes that ship traces over links that drop. This package
// makes those failure modes reproducible: every injector draws from a Plan
// seeded with an explicit int64 (never the wall clock), so a chaos test
// that replays the same seed observes the identical fault sequence, read
// for read and byte for byte.
//
// Three composable injectors mirror the three layers the profiler depends
// on:
//
//   - FaultySensor wraps a sensors.Sensor with transient read errors,
//     dropout windows, stuck-at-value windows, out-of-range spikes and
//     slow reads;
//   - FaultyConn / FaultyDialer wrap a net.Conn with refused dials,
//     mid-stream closes, partial writes and latency; and
//   - FaultyWriter wraps an io.Writer with short writes and write errors,
//     simulating a filesystem that fills up or a process that dies
//     mid-flush.
package faultinject

import (
	"errors"
	"math/rand"
	"sync"
)

// ErrInjected is the root of every synthetic failure this package raises;
// callers can errors.Is against it to separate injected faults from real
// ones in mixed tests.
var ErrInjected = errors.New("faultinject: injected fault")

// Plan is a seeded source of fault decisions. It is safe for concurrent
// use; decisions are serialised so a single-goroutine replay with the same
// seed sees the same sequence.
type Plan struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewPlan builds a plan from an explicit seed.
func NewPlan(seed int64) *Plan {
	return &Plan{rng: rand.New(rand.NewSource(seed))}
}

// Hit reports true with probability p.
func (pl *Plan) Hit(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.rng.Float64() < p
}
