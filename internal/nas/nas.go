// Package nas implements Go ports of NAS Parallel Benchmark kernels on
// the simulated cluster: FT and BT (the paper's §4.3 evaluation codes)
// plus EP, CG, MG and IS for breadth. Each kernel performs genuine
// computation — real FFTs, real block-tridiagonal solves, real sparse
// algebra — with the communication structure of the original MPI codes,
// instrumented under the NPB function names the paper's tables print
// (adi_, matvec_sub, matmul_sub, …).
//
// Timing: the simulated cluster runs in virtual time (see
// internal/cluster). Kernels declare each phase's virtual duration as
// ops/VirtualRate, so the *relative* weight of functions matches the
// operation counts of the real benchmark; VirtualRate is scaled so a
// class-S run spans tens of virtual seconds, the range where 4 Hz
// sampling shows the phase structure the paper's figures show.
package nas

import (
	"fmt"
	"time"

	"tempest/internal/cluster"
)

// Class is the NPB problem-size class. Only the small classes are wired:
// a laptop-scale container cannot hold class C working sets, and DESIGN.md
// records this substitution — phase structure, not absolute size, is what
// the thermal profiles derive from.
type Class byte

// Problem classes.
const (
	// ClassS is the smallest ("sample") size, used by unit tests.
	ClassS Class = 'S'
	// ClassW is the workstation size, used by examples and benches.
	ClassW Class = 'W'
	// ClassA is the largest wired size.
	ClassA Class = 'A'
)

// Valid reports whether the class is wired.
func (c Class) Valid() bool { return c == ClassS || c == ClassW || c == ClassA }

// String implements fmt.Stringer.
func (c Class) String() string { return string(c) }

// ParseClass converts "S"/"W"/"A" (any case) to a Class.
func ParseClass(s string) (Class, error) {
	if len(s) != 1 {
		return 0, fmt.Errorf("nas: invalid class %q", s)
	}
	c := Class(s[0] &^ 0x20) // upper-case
	if !c.Valid() {
		return 0, fmt.Errorf("nas: unknown class %q (have S, W, A)", s)
	}
	return c, nil
}

// VirtualRate is the simulated "useful operations per virtual second"
// used to convert operation counts into virtual durations. It is not a
// hardware claim: it is the scale knob that puts class-S runs in the
// tens-of-seconds regime the paper's 4 Hz sampling resolves.
const VirtualRate = 4.0e6

// opsDuration converts an operation count to virtual time.
func opsDuration(ops float64) time.Duration {
	return time.Duration(ops / VirtualRate * float64(time.Second))
}

// Verification is the common pass/fail outcome of a kernel run.
type Verification struct {
	// Passed reports whether the kernel's internal check succeeded.
	Passed bool
	// Detail explains the check (norm values, checksums).
	Detail string
}

// isPow2 reports whether n is a power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// computeChecked runs fn inside rc.Compute and propagates fn's own error
// (Compute's signature takes a plain func, so an inner failure would
// otherwise be lost).
func computeChecked(rc *cluster.Rank, util float64, d time.Duration, fn func() error) error {
	var inner error
	if err := rc.Compute(util, d, func() { inner = fn() }); err != nil {
		return err
	}
	return inner
}

// instrumentChecked wraps computeChecked in an Enter/Exit pair.
func instrumentChecked(rc *cluster.Rank, name string, util float64, d time.Duration, fn func() error) error {
	rc.Enter(name)
	if err := computeChecked(rc, util, d, fn); err != nil {
		_ = rc.Exit()
		return err
	}
	return rc.Exit()
}

// Kernels names the kernels Run knows, in the order nasrun runs them.
var Kernels = []string{"ft", "bt", "sp", "lu", "ep", "cg", "cg2d", "mg", "is"}

// Run runs one kernel, named as in Kernels, at class on one rank of a
// cluster run, and returns its verification outcome and the rank's
// makespan.
func Run(rc *cluster.Rank, kernel string, class Class) (v Verification, makespan time.Duration, err error) {
	switch kernel {
	case "ft":
		var r *FTResult
		if r, err = RunFT(rc, class); err == nil {
			v, makespan = r.Verification, r.Makespan
		}
	case "bt":
		var r *BTResult
		if r, err = RunBT(rc, class); err == nil {
			v, makespan = r.Verification, r.Makespan
		}
	case "sp":
		var r *SPResult
		if r, err = RunSP(rc, class); err == nil {
			v, makespan = r.Verification, r.Makespan
		}
	case "lu":
		var r *LUResult
		if r, err = RunLU(rc, class); err == nil {
			v, makespan = r.Verification, r.Makespan
		}
	case "ep":
		var r *EPResult
		if r, err = RunEP(rc, class); err == nil {
			v, makespan = r.Verification, r.Makespan
		}
	case "cg", "cg2d":
		run := RunCGParams
		if kernel == "cg2d" {
			run = RunCG2DParams // the 2-D decomposition of the same problem
		}
		var p CGParams
		var r *CGResult
		if p, err = CGClassParams(class); err == nil {
			if r, err = run(rc, p); err == nil {
				v, makespan = r.Verification, r.Makespan
			}
		}
	case "mg":
		var r *MGResult
		if r, err = RunMG(rc, class); err == nil {
			v, makespan = r.Verification, r.Makespan
		}
	case "is":
		var r *ISResult
		if r, err = RunIS(rc, class); err == nil {
			v, makespan = r.Verification, r.Makespan
		}
	default:
		err = fmt.Errorf("nas: unknown kernel %q", kernel)
	}
	return v, makespan, err
}
