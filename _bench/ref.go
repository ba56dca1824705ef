package main

import (
	"math/rand"
	"time"
)

// The reference kernel: a fixed piece of Go that has nothing of Tempest
// in it and slows down when the pipeline does. This host's speed for
// allocating, cache-missing Go code moves by tens of percent and stays
// moved for minutes (README, "At reference speed"); within one run every
// pipeline metric moves with it, and so does this kernel. A run times
// the kernel before every turn of every workload, and reports each
// pipeline timing at reference speed: divided by how much slower than
// refNominal the kernel ran in that run.
//
// The kernel appends refAppends values to the refLists slices of a fresh
// map, in a fixed pseudo-random order: map lookups, slice growth, the
// allocator and the garbage collector behind them — what decode, the
// Builder's interval lists and a snapshot's copies are made of. Of the
// kernels tried (pointer chase over 64 MB, 32 MB copy, appends to large
// persistent lists, a float loop) it tracked the pipeline best.
const (
	refAppends = 1 << 16
	refLists   = 1 << 10
	// refNominal is what one pass takes on the machine the first table
	// was measured on while it is quiet. It only fixes the scale: on
	// another machine every normalised metric is off by one constant
	// factor, the same in every run.
	refNominal = 1700 * time.Microsecond
)

// reference holds the kernel's input and the passes a run has timed.
type reference struct {
	order  []uint32
	passes []float64 // seconds
	sink   int
}

func newReference() *reference {
	r := rand.New(rand.NewSource(1))
	ref := &reference{order: make([]uint32, refAppends)}
	for i := range ref.order {
		ref.order[i] = uint32(r.Intn(refLists))
	}
	return ref
}

// pass runs the kernel once and keeps its time.
func (r *reference) pass() {
	start := time.Now()
	lists := map[uint32][]uint64{}
	for i, k := range r.order {
		lists[k] = append(lists[k], uint64(i))
	}
	r.passes = append(r.passes, time.Since(start).Seconds())
	r.sink += len(lists)
}

// slowdown is how much slower than nominal the kernel ran in this run:
// the lower quartile of its passes over refNominal. The lower quartile
// because the metrics it corrects are themselves read off the quiet side
// of their samples; 1 when no pass was timed.
func (r *reference) slowdown() float64 {
	if len(r.passes) == 0 {
		return 1
	}
	return quantile(r.passes, 0.25) / refNominal.Seconds()
}
