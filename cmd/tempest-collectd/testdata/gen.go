//go:build ignore

// gen.go regenerates smoke.tpst, the canned single-node trace the
// collectd smoke test ships through a live collector:
//
//	go run testdata/gen.go
//
// The trace is fully deterministic (virtual clock, fixed workload), so
// the hotspot answer it produces is stable and the smoke test can diff
// the collector's /api/hotspots response against hotspots.golden. After
// changing the workload here, regenerate the golden too:
//
//	go run testdata/gen.go && make collectd-smoke UPDATE_GOLDEN=1
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tempest/internal/trace"
	"tempest/internal/vclock"
)

func main() {
	clk := vclock.NewVirtualClock()
	tr, err := trace.NewTracer(trace.Config{Clock: clk, NodeID: 1, LaneBufferCap: 1 << 20})
	if err != nil {
		panic(err)
	}
	lane := tr.NewLane()
	compute := tr.RegisterFunc("compute_kernel")
	exchange := tr.RegisterFunc("halo_exchange")
	idle := tr.RegisterFunc("idle_wait")

	// Three phases with distinct thermal signatures: hot compute, warm
	// exchange, cool idle — a clean top-3 for the smoke assertion.
	temp := 40.0
	sample := func(delta float64) {
		temp += delta
		clk.Advance(50 * time.Millisecond)
		tr.Sample(0, temp)
	}
	for cycle := 0; cycle < 10; cycle++ {
		lane.Enter(compute)
		for i := 0; i < 4; i++ {
			sample(0.5)
		}
		lane.Exit(compute)
		lane.Enter(exchange)
		for i := 0; i < 2; i++ {
			sample(0.125)
		}
		lane.Exit(exchange)
		lane.Enter(idle)
		for i := 0; i < 3; i++ {
			sample(-0.75)
		}
		lane.Exit(idle)
	}

	out := filepath.Join(filepath.Dir(os.Args[0]), "smoke.tpst")
	if len(os.Args) > 1 {
		out = os.Args[1]
	} else {
		out = "testdata/smoke.tpst"
	}
	f, err := os.Create(out)
	if err != nil {
		panic(err)
	}
	t := tr.Finish()
	if err := t.WriteSegmented(f, 32); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	fmt.Printf("wrote %s: %d events, %d symbols\n", out, len(t.Events), t.Sym.Len())
}
