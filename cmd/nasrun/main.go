// Command nasrun drives the NAS Parallel Benchmark ports on the simulated
// cluster and prints each kernel's verification outcome and makespan —
// the workload driver behind the paper's §4.3 evaluation.
//
// Usage:
//
//	nasrun                     # all kernels, class S, 4 nodes
//	nasrun -kernels ft,bt -class W -nodes 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"tempest/internal/cluster"
	"tempest/internal/nas"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nasrun:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nasrun", flag.ContinueOnError)
	kernels := fs.String("kernels", strings.Join(nas.Kernels, ","), "comma-separated kernels")
	classStr := fs.String("class", "S", "problem class: S|W|A")
	nodes := fs.Int("nodes", 4, "cluster nodes")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	class, err := nas.ParseClass(*classStr)
	if err != nil {
		return err
	}

	keys := strings.Split(*kernels, ",")
	for i, key := range keys {
		keys[i] = strings.TrimSpace(strings.ToLower(key))
		if !slices.Contains(nas.Kernels, keys[i]) {
			return fmt.Errorf("unknown kernel %q", keys[i])
		}
	}

	fmt.Fprintf(out, "NAS Parallel Benchmarks (Go port) — class %s, NP=%d\n", class, *nodes)
	fmt.Fprintf(out, "%-4s %-8s %-12s %s\n", "code", "status", "makespan", "detail")
	failures := 0
	for _, key := range keys {
		name := strings.ToUpper(key)
		c, err := cluster.New(cluster.Config{
			Nodes: *nodes, RanksPerNode: 1, Seed: *seed,
			Cost: nas.FTCost(), Heterogeneous: true,
		})
		if err != nil {
			return err
		}
		var verif nas.Verification
		var makespan time.Duration
		if _, err := c.Run(func(rc *cluster.Rank) error {
			v, m, err := nas.Run(rc, key, class)
			if rc.Rank() == 0 {
				verif, makespan = v, m
			}
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		status := "PASS"
		if !verif.Passed {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(out, "%-4s %-8s %-12s %s\n", name, status, makespan.Round(time.Millisecond), verif.Detail)
	}
	if failures > 0 {
		return fmt.Errorf("%d kernels failed verification", failures)
	}
	return nil
}
