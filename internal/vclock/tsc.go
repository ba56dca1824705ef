package vclock

import (
	"fmt"
	"math/rand"
	"sync"
)

// CoreSpec describes one simulated core's timestamp counter.
type CoreSpec struct {
	// FreqHz is the counter frequency; the paper's Opterons run 1.8 GHz.
	FreqHz float64
	// SkewCycles is the constant offset of this core's counter relative
	// to core 0 — the cross-core skew §3.3 warns about.
	SkewCycles int64
	// DriftPPM is the frequency error in parts per million, modelling
	// oscillator tolerance (counters on different sockets tick at very
	// slightly different rates).
	DriftPPM float64
}

// TSC models the per-core timestamp counters of one node. Reads are driven
// by a Clock (virtual or real) so the same code path serves simulation and
// live profiling.
type TSC struct {
	clock Clock
	cores []CoreSpec
}

// NewTSC builds a TSC model over clock with the given core specs. It
// returns an error if no cores are specified or any frequency is
// non-positive.
func NewTSC(clock Clock, cores []CoreSpec) (*TSC, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("vclock: TSC needs at least one core")
	}
	for i, c := range cores {
		if c.FreqHz <= 0 {
			return nil, fmt.Errorf("vclock: core %d frequency %v must be positive", i, c.FreqHz)
		}
	}
	return &TSC{clock: clock, cores: append([]CoreSpec(nil), cores...)}, nil
}

// SkewedCores returns n core specs at freqHz whose skew and drift are
// drawn deterministically from seed: skew uniform in ±maxSkewCycles and
// drift uniform in ±maxDriftPPM. Core 0 is the reference (zero skew).
func SkewedCores(n int, freqHz float64, maxSkewCycles int64, maxDriftPPM float64, seed int64) []CoreSpec {
	rng := rand.New(rand.NewSource(seed))
	cores := make([]CoreSpec, n)
	for i := range cores {
		cores[i] = CoreSpec{FreqHz: freqHz}
		if i > 0 {
			if maxSkewCycles > 0 {
				cores[i].SkewCycles = rng.Int63n(2*maxSkewCycles+1) - maxSkewCycles
			}
			cores[i].DriftPPM = (rng.Float64()*2 - 1) * maxDriftPPM
		}
	}
	return cores
}

// NumCores reports the number of modelled cores.
func (t *TSC) NumCores() int { return len(t.cores) }

// Read returns the cycle count of core's counter at the current clock
// time: skew + elapsed·freq·(1+drift). It panics on an out-of-range core,
// mirroring a hardware fault rather than a recoverable error.
func (t *TSC) Read(core int) int64 {
	c := t.cores[core]
	elapsed := t.clock.Now().Seconds()
	return c.SkewCycles + int64(elapsed*c.FreqHz*(1+c.DriftPPM/1e6))
}

// Reader timestamps events by reading a TSC. A bound reader always reads
// the same core — the paper's mitigation for skew. An unbound reader
// migrates between cores on every read (deterministically, from seed),
// reproducing the error mode §3.3 describes for migrating processes.
type Reader struct {
	tsc   *TSC
	mu    sync.Mutex
	bound int // core index, or -1 for unbound
	rng   *rand.Rand
	comp  []int64 // per-core compensation offsets (cycles), nil = none
}

// NewBoundReader returns a Reader pinned to core.
func NewBoundReader(tsc *TSC, core int) (*Reader, error) {
	if core < 0 || core >= tsc.NumCores() {
		return nil, fmt.Errorf("vclock: core %d out of range [0,%d)", core, tsc.NumCores())
	}
	return &Reader{tsc: tsc, bound: core}, nil
}

// NewUnboundReader returns a Reader that migrates to a random core on
// every read, seeded for determinism.
func NewUnboundReader(tsc *TSC, seed int64) *Reader {
	return &Reader{tsc: tsc, bound: -1, rng: rand.New(rand.NewSource(seed))}
}

// Read returns (cycles, core): the counter value observed and the core it
// was observed on. Compensation offsets, when calibrated, are subtracted.
func (r *Reader) Read() (int64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	core := r.bound
	if core < 0 {
		core = r.rng.Intn(r.tsc.NumCores())
	}
	c := r.tsc.Read(core)
	if r.comp != nil {
		c -= r.comp[core]
	}
	return c, core
}

// Calibrate measures each core's offset relative to core 0 by reading all
// counters at (virtually) the same instant and installs compensation
// offsets, the alternative to binding that the paper leaves to future
// versions. Subsequent reads subtract the measured offsets.
func (r *Reader) Calibrate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.tsc.NumCores()
	comp := make([]int64, n)
	ref := r.tsc.Read(0)
	for core := 1; core < n; core++ {
		comp[core] = r.tsc.Read(core) - ref
	}
	r.comp = comp
}
