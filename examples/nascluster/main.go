// Nascluster reproduces the paper's §4.3 evaluation: NAS FT and BT with
// NP=4 on a heterogeneous simulated cluster — Figures 3–4 (per-node
// temperature timelines, stacked for phase comparison) and Tables 2–3
// (partial functional profiles).
//
//	go run ./examples/nascluster
//	go run ./examples/nascluster -class S   # smaller, faster
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tempest"
	"tempest/internal/cluster"
	"tempest/internal/nas"
	"tempest/internal/report"
)

func main() {
	classStr := flag.String("class", "W", "NAS problem class: S|W|A")
	flag.Parse()
	class, err := nas.ParseClass(*classStr)
	if err != nil {
		log.Fatal(err)
	}

	cost := nas.FTCost()
	runBench := func(kernel string) *tempest.Profile {
		name := strings.ToUpper(kernel)
		s, err := tempest.NewSession(tempest.Config{
			Nodes:         4,
			Seed:          7,
			Heterogeneous: true, // the paper's nodes run visibly differently
			Cost:          &cost,
		})
		if err != nil {
			log.Fatal(err)
		}
		p, err := s.Run(func(rc *tempest.Rank) error {
			v, _, err := nas.Run(rc, kernel, class)
			if err == nil && !v.Passed {
				err = fmt.Errorf("%s verification failed: %s", name, v.Detail)
			}
			return err
		})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		return p
	}

	// --- FT: Figure 3 + Table 2 ---------------------------------------
	ft := runBench("ft")
	fmt.Printf("=== Figure 3: FT class %s, NP=4 — per-node CPU temperature ===\n\n", class)
	if err := ft.Plot(os.Stdout, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Table 2: partial FT functional profile (node 0) ===")
	if err := report.WriteNode(os.Stdout, &ft.Nodes[0], report.Options{
		OnlySignificant: true, TopN: 6,
	}); err != nil {
		log.Fatal(err)
	}
	printNodeSummary(ft)

	// --- BT: Figure 4 + Table 3 ---------------------------------------
	bt := runBench("bt")
	fmt.Printf("\n=== Figure 4: BT class %s, NP=4 — per-node CPU temperature ===\n\n", class)
	if err := bt.Plot(os.Stdout, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Table 3: partial BT functional profile (node 0) ===")
	if err := report.WriteNode(os.Stdout, &bt.Nodes[0], report.Options{
		OnlySignificant: true, TopN: 8,
	}); err != nil {
		log.Fatal(err)
	}
	printNodeSummary(bt)
	_ = cluster.UtilBurn
}

// printNodeSummary prints the per-node ranking (the paper's observation
// that some nodes run hotter than others under the same load).
func printNodeSummary(p *tempest.Profile) {
	nodes, err := p.HotNodes(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-node thermal summary (hottest first):")
	for _, n := range nodes {
		fmt.Printf("  node %d: avg %6.1f °F  max %6.1f °F  trend %+.3f °F/s  volatility %.2f\n",
			n.NodeID, n.Avg, n.Max, n.TrendPerS, n.Volatility)
	}
}
