package vclock

import (
	"os"
	"strings"
	"sync"
	"time"
)

// clocksourcePath names the clocksource Linux keeps its own time with.
// "tsc" means the kernel found the counter invariant and synchronised
// across cores, and watches it; anything else (hpet, kvm-clock, a missing
// file) means RealClock must not trust the counter either.
const clocksourcePath = "/sys/devices/system/clocksource/clocksource0/current_clocksource"

const (
	// calibrationSpan is the least monotonic time between calibration's
	// two brackets; their widths over it bound the rate's error.
	calibrationSpan = 5 * time.Millisecond
	// bracketTries bounds the (mono, counter, mono) reads per bracket.
	bracketTries = 16
	// maxBracket is the widest bracket calibration accepts. Two of them
	// calibrationSpan apart put the rate within 0.02 %.
	maxBracket = time.Microsecond
)

var (
	// cycles reads the CPU's timestamp counter; nil on architectures
	// without one (cycles_amd64.go sets it).
	cycles func() int64
	// monotonicOnly makes NewRealClock read time.Since even where the
	// counter is usable, so tests cover the path other platforms take.
	monotonicOnly bool

	rateOnce  sync.Once
	nsPerTick float64 // set by rateOnce; 0 when the counter is not used
)

// RealClock reads real time, rebased so the first reading after
// construction is near zero: from the timestamp counter where the
// process calibrated one (see counterRate), from the monotonic OS clock
// otherwise. Readings on one core never decrease; a goroutine that moves
// to another core may read a few ns back, which trace lanes clamp.
type RealClock struct {
	origin time.Time
	// Counter path, when nsPerTick is not 0: the counter at construction
	// and the process's conversion rate.
	base      int64
	nsPerTick float64
}

// NewRealClock returns a RealClock with origin at the current instant.
// The first call in a process may take calibrationSpan to calibrate the
// counter.
func NewRealClock() *RealClock {
	if monotonicOnly {
		return newRealClock(0)
	}
	return newRealClock(counterRate())
}

// newRealClock returns a clock converting counter ticks at rate ns per
// tick, or one on the monotonic OS clock when rate is 0.
func newRealClock(rate float64) *RealClock {
	// RealClock is the one sanctioned bridge to the wall clock: live
	// profiling sessions inject it, simulated runs never see it.
	c := &RealClock{origin: time.Now()} //tempest:ignore wallclock
	if rate != 0 {
		c.base, c.nsPerTick = cycles(), rate
	}
	return c
}

// Now returns the time elapsed since construction.
func (c *RealClock) Now() time.Duration {
	if c.nsPerTick != 0 {
		return time.Duration(float64(cycles()-c.base) * c.nsPerTick)
	}
	return time.Since(c.origin) //tempest:ignore wallclock
}

// counterRate returns the process's ns per counter tick, calibrating on
// first use, or 0 when RealClock must use the monotonic clock: no
// counter on this architecture, a kernel that does not keep time with
// it, or a calibration that found no tight bracket.
func counterRate() float64 {
	rateOnce.Do(func() {
		if cycles == nil {
			return
		}
		if src, err := os.ReadFile(clocksourcePath); err != nil || strings.TrimSpace(string(src)) != "tsc" {
			return
		}
		nsPerTick, _ = calibrate(cycles)
	})
	return nsPerTick
}

// calibrate measures ns per tick of read against the monotonic clock from
// two brackets at least calibrationSpan apart. It reports false, with
// rate 0, when either bracket is wider than maxBracket after bracketTries
// reads or the counter did not advance; it never waits for more than
// calibrationSpan plus the reads.
func calibrate(read func() int64) (rate float64, ok bool) {
	epoch := time.Now() //tempest:ignore wallclock
	mono := func() time.Duration {
		return time.Since(epoch) //tempest:ignore wallclock
	}
	m0, t0, ok := bracket(read, mono)
	if !ok {
		return 0, false
	}
	time.Sleep(calibrationSpan) //tempest:ignore wallclock
	m1, t1, ok := bracket(read, mono)
	if !ok || t1 <= t0 {
		return 0, false
	}
	return float64(m1-m0) / float64(t1-t0), true
}

// bracket reads the counter between two monotonic reads bracketTries
// times and keeps the tightest: the counter value and its bracket's
// midpoint. It reports false when no bracket was within maxBracket.
func bracket(read func() int64, mono func() time.Duration) (mid time.Duration, ticks int64, ok bool) {
	best := maxBracket + 1
	for i := 0; i < bracketTries; i++ {
		a := mono()
		t := read()
		b := mono()
		if w := b - a; w < best {
			best, mid, ticks = w, a+w/2, t
		}
	}
	return mid, ticks, best <= maxBracket
}
