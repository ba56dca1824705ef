package vclock

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRealClockMonotonic(t *testing.T) {
	c := NewRealClock()
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Errorf("real clock went backward: %v then %v", a, b)
	}
}

// realClockPaths returns a clock on each path RealClock can take on this
// host: the cycle counter (when the kernel keeps time with it) and the
// monotonic OS clock, forced through monotonicOnly.
func realClockPaths(t *testing.T) map[string]*RealClock {
	t.Helper()
	paths := map[string]*RealClock{}
	if c := NewRealClock(); c.nsPerTick != 0 {
		paths["tsc"] = c
	} else {
		t.Log("no TSC clocksource here: only the monotonic path is checked")
	}
	monotonicOnly = true
	paths["monotonic"] = NewRealClock()
	monotonicOnly = false
	if paths["monotonic"].nsPerTick != 0 {
		t.Fatal("monotonicOnly did not keep RealClock off the counter")
	}
	return paths
}

// checkTracksMonotonic fails unless c's elapsed time over a 200 ms sleep
// agrees with time.Since within 0.1 %. Each end is a c reading bracketed
// by two monotonic reads; a bracket a preemption widened is read again.
func checkTracksMonotonic(t *testing.T, c *RealClock) {
	t.Helper()
	epoch := time.Now()
	read := func() (clock, mono time.Duration) {
		for i := 0; ; i++ {
			a := time.Since(epoch)
			clock = c.Now()
			b := time.Since(epoch)
			if b-a <= 10*time.Microsecond || i == 100 {
				return clock, a + (b-a)/2
			}
		}
	}
	c0, m0 := read()
	time.Sleep(200 * time.Millisecond)
	c1, m1 := read()
	got, want := c1-c0, m1-m0
	if diff := math.Abs(float64(got - want)); diff > 0.001*float64(want) {
		t.Errorf("over %v of monotonic time the clock advanced %v (%.4f %% off)", want, got, 100*diff/float64(want))
	}
}

// checkNeverStepsBack passes readings back and forth between two
// goroutines locked to their own OS threads; each reading must be at
// least the one it was handed.
func checkNeverStepsBack(t *testing.T, c *RealClock) {
	t.Helper()
	const rounds = 5_000
	ping, pong := make(chan time.Duration), make(chan time.Duration)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for prev := range ping {
			if now := c.Now(); now < prev {
				t.Errorf("reading %v after being handed %v", now, prev)
			}
			pong <- c.Now()
		}
		close(pong)
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < rounds; i++ {
		ping <- c.Now()
		prev := <-pong
		if now := c.Now(); now < prev {
			t.Errorf("reading %v after being handed %v", now, prev)
		}
	}
	close(ping)
	wg.Wait()
}

func TestRealClockTracksMonotonic(t *testing.T) {
	for name, c := range realClockPaths(t) {
		t.Run(name, func(t *testing.T) { checkTracksMonotonic(t, c) })
	}
}

func TestRealClockNeverStepsBackAcrossThreads(t *testing.T) {
	for name, c := range realClockPaths(t) {
		t.Run(name, func(t *testing.T) { checkNeverStepsBack(t, c) })
	}
}

// A counter read that is never bracketed tightly — here every read
// sleeps — makes calibration give up after its bounded tries, and the
// clock it yields is the monotonic one and still tells time.
func TestCalibrationGivesUpOnLooseBrackets(t *testing.T) {
	var reads int64
	slow := func() int64 {
		reads++
		time.Sleep(20 * time.Microsecond)
		return reads
	}
	type result struct {
		rate float64
		ok   bool
	}
	done := make(chan result, 1)
	go func() {
		rate, ok := calibrate(slow)
		done <- result{rate, ok}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("calibration did not give up")
	}
	if r.ok || r.rate != 0 {
		t.Fatalf("calibrate over loose brackets = %v, %v; want 0, false", r.rate, r.ok)
	}
	if reads != bracketTries {
		t.Errorf("calibration read the counter %d times, want one bracket's %d tries", reads, bracketTries)
	}
	c := newRealClock(r.rate)
	if c.nsPerTick != 0 {
		t.Fatal("a failed calibration left the clock on the counter")
	}
	checkTracksMonotonic(t, c)
	checkNeverStepsBack(t, c)
}

// Where the counter is in use, calibrating it again lands near the rate
// the process already uses.
func TestCalibrationOnTheCounter(t *testing.T) {
	if NewRealClock().nsPerTick == 0 {
		t.Skip("no TSC clocksource here")
	}
	start := time.Now()
	rate, ok := calibrate(cycles)
	t.Logf("calibration took %v", time.Since(start))
	if !ok || math.Abs(rate-counterRate()) > 0.001*counterRate() {
		t.Errorf("calibrate = %v, %v; the process rate is %v", rate, ok, counterRate())
	}
}

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtualClock()
	if c.Now() != 0 {
		t.Fatalf("new virtual clock at %v, want 0", c.Now())
	}
	got := c.Advance(250 * time.Millisecond)
	if got != 250*time.Millisecond || c.Now() != 250*time.Millisecond {
		t.Errorf("after advance: %v / %v", got, c.Now())
	}
}

func TestVirtualClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative advance should panic")
		}
	}()
	NewVirtualClock().Advance(-1)
}

func TestVirtualClockConcurrentAdvance(t *testing.T) {
	c := NewVirtualClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 8*1000*time.Microsecond {
		t.Errorf("concurrent advance total = %v, want 8ms", got)
	}
}

func TestNewTSCValidation(t *testing.T) {
	c := NewVirtualClock()
	if _, err := NewTSC(c, nil); err == nil {
		t.Error("no cores should fail")
	}
	if _, err := NewTSC(c, []CoreSpec{{FreqHz: 0}}); err == nil {
		t.Error("zero frequency should fail")
	}
}

func TestTSCReadAdvances(t *testing.T) {
	c := NewVirtualClock()
	tsc, err := NewTSC(c, uniformCores(2, 1.8e9))
	if err != nil {
		t.Fatal(err)
	}
	if got := tsc.Read(0); got != 0 {
		t.Errorf("t=0 read = %d, want 0", got)
	}
	c.Advance(time.Second)
	if got := tsc.Read(0); got != 1_800_000_000 {
		t.Errorf("1s read = %d, want 1.8e9 cycles", got)
	}
}

func TestTSCDrift(t *testing.T) {
	c := NewVirtualClock()
	cores := []CoreSpec{
		{FreqHz: 1e9},
		{FreqHz: 1e9, DriftPPM: 100}, // +100 ppm
	}
	tsc, _ := NewTSC(c, cores)
	c.Advance(10 * time.Second)
	d := tsc.Read(1) - tsc.Read(0)
	// 100 ppm over 10 s at 1 GHz = 1e6 cycles.
	if d < 900_000 || d > 1_100_000 {
		t.Errorf("drift delta = %d cycles, want ≈1e6", d)
	}
}

func TestBoundReaderConsistency(t *testing.T) {
	// Paper §3.3: binding to one core gives monotonic, skew-free deltas.
	c := NewVirtualClock()
	tsc, _ := NewTSC(c, SkewedCores(4, 1.8e9, 10_000_000, 50, 42))
	r, err := NewBoundReader(tsc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.bound != 2 {
		t.Errorf("Bound() = %d, want 2", r.bound)
	}
	prev, core := r.Read()
	if core != 2 {
		t.Errorf("read on core %d, want 2", core)
	}
	for i := 0; i < 100; i++ {
		c.Advance(time.Millisecond)
		cur, core := r.Read()
		if core != 2 {
			t.Fatalf("bound reader migrated to core %d", core)
		}
		if cur <= prev {
			t.Fatalf("bound reader not monotonic: %d then %d", prev, cur)
		}
		prev = cur
	}
}

func TestNewBoundReaderRange(t *testing.T) {
	c := NewVirtualClock()
	tsc, _ := NewTSC(c, uniformCores(2, 1e9))
	if _, err := NewBoundReader(tsc, -1); err == nil {
		t.Error("negative core should fail")
	}
	if _, err := NewBoundReader(tsc, 2); err == nil {
		t.Error("out-of-range core should fail")
	}
}

func TestUnboundReaderSeesSkew(t *testing.T) {
	// An unbound reader can observe time going "backward" when it
	// migrates from a skew-ahead core to a skew-behind core — the error
	// the paper binds cores to avoid.
	c := NewVirtualClock()
	tsc, _ := NewTSC(c, SkewedCores(4, 1.8e9, 50_000_000, 0, 7))
	r := NewUnboundReader(tsc, 99)
	backward := false
	prev, _ := r.Read()
	for i := 0; i < 500; i++ {
		c.Advance(time.Microsecond) // skew (≈28 ms max) dominates 1 µs steps
		cur, _ := r.Read()
		if cur < prev {
			backward = true
			break
		}
		prev = cur
	}
	if !backward {
		t.Error("unbound reader on heavily skewed cores never observed backward time")
	}
}

func TestCalibrationCompensatesSkew(t *testing.T) {
	c := NewVirtualClock()
	tsc, _ := NewTSC(c, SkewedCores(4, 1.8e9, 50_000_000, 0, 7))
	r := NewUnboundReader(tsc, 99)
	r.Calibrate()
	prev, _ := r.Read()
	for i := 0; i < 500; i++ {
		c.Advance(100 * time.Microsecond)
		cur, _ := r.Read()
		if cur < prev {
			t.Fatalf("calibrated reader observed backward time: %d then %d", prev, cur)
		}
		prev = cur
	}
}

func TestSkewedCoresDeterministic(t *testing.T) {
	a := SkewedCores(8, 1e9, 1000, 10, 5)
	b := SkewedCores(8, 1e9, 1000, 10, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SkewedCores not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].SkewCycles != 0 || a[0].DriftPPM != 0 {
		t.Error("core 0 must be the zero-skew reference")
	}
}

// Property: for any advance sequence, a bound reader's deltas convert back
// to the advanced wall time within rounding error.
func TestBoundReaderDeltaProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewVirtualClock()
		tsc, _ := NewTSC(c, uniformCores(1, 2e9))
		r, _ := NewBoundReader(tsc, 0)
		start, _ := r.Read()
		var total time.Duration
		for _, s := range steps {
			d := time.Duration(s) * time.Microsecond
			c.Advance(d)
			total += d
		}
		end, _ := r.Read()
		got := time.Duration(float64(end-start) / 2e9 * float64(time.Second))
		diff := got - total
		if diff < 0 {
			diff = -diff
		}
		return diff <= time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBoundReaderRead(b *testing.B) {
	c := NewVirtualClock()
	tsc, _ := NewTSC(c, uniformCores(4, 1.8e9))
	r, _ := NewBoundReader(tsc, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Read()
	}
}

func BenchmarkRealClockNow(b *testing.B) {
	c := NewRealClock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Now()
	}
}

func uniformCores(n int, freqHz float64) []CoreSpec {
	cores := make([]CoreSpec, n)
	for i := range cores {
		cores[i] = CoreSpec{FreqHz: freqHz}
	}
	return cores
}
