// Package vclock provides the time sources Tempest timestamps events with.
//
// The paper samples the per-core TSC via rdtsc because OS timer calls are
// too heavy for per-function-call instrumentation (§3.2), and compensates
// for cross-core TSC skew by binding the profiled process to one core
// (§3.3). This package offers
//
//   - RealClock: the clock real executions are profiled with. On amd64,
//     when the kernel runs its own clock from the TSC (its verdict that
//     the counter is invariant and in step across cores), it reads the
//     TSC itself, converted at a rate calibrated once per process against
//     the monotonic OS clock; everywhere else it is that monotonic clock;
//   - VirtualClock: a manually advanced deterministic clock, the time base
//     of the simulated cluster; and
//   - TSC: a cycle-accurate model of per-core timestamp counters with
//     configurable skew and drift, so the binding/compensation logic the
//     paper describes is implemented and testable rather than assumed.
package vclock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a monotonic time source. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns nanoseconds since the clock's origin.
	Now() time.Duration
}

// VirtualClock is a deterministic, manually advanced clock. It is the time
// base for simulated cluster runs: the discrete-event engine advances it,
// and every sensor sample and trace event reads it. The zero value is
// ready to use at time 0.
type VirtualClock struct {
	now atomic.Int64 // nanoseconds
}

// NewVirtualClock returns a virtual clock at time 0.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Duration {
	return time.Duration(c.now.Load())
}

// Advance moves the clock forward by d and returns the new time. Negative
// d panics: virtual time is monotonic by construction and a backward step
// indicates a simulation bug, not a recoverable condition.
func (c *VirtualClock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	return time.Duration(c.now.Add(int64(d)))
}
