// Package costmodel ranks functions by predicted execution cost on top
// of the callgraph package — Tempest's static answer to "which functions
// will be hot, and which are too cheap to deserve entry/exit hooks".
//
// The model is deliberately simple and fully static:
//
//   - every loop level multiplies expected executions by a constant
//     weight (loopWeight), so a statement in a triple nest
//     counts W³ against one at function entry;
//   - costs propagate bottom-up over the call graph's SCC condensation
//     (recursive cycles are cut by charging a member's self cost once),
//     giving each function a Total that includes its callees;
//   - call frequencies propagate top-down from the entry points, giving
//     each function a predicted relative call count Freq;
//   - Score = Freq × Self approximates exclusive (flat) profile weight —
//     the quantity Tempest's measured profiles rank functions by.
//
// Plan sits directly on the model: it converts Freq into per-function
// hook-overhead estimates priced with the measured instrument.Trace
// costs, demoting functions from detail to coarse to skip until a target
// overhead fraction is met.
package costmodel

import (
	"fmt"
	"sort"

	"tempest/internal/analysis/callgraph"
)

const (
	// loopWeight is the assumed iteration count per loop level.
	loopWeight = 8
	// extCallCost is the work charged for a call that leaves the loaded
	// program or cannot be resolved.
	extCallCost = 12
)

// FuncCost is one function's model outcome.
type FuncCost struct {
	Node *callgraph.Node
	// Self is the function's own loop-weighted work, calls excluded.
	Self float64
	// Total is Self plus the weighted Totals of resolved callees,
	// propagated through the SCC condensation.
	Total float64
	// Freq is the predicted relative call count from the roots (roots
	// count 1 per activation).
	Freq float64
	// Score = Freq × Self: predicted exclusive profile weight.
	Score float64
}

// Model is the analyzed cost model.
type Model struct {
	Graph *callgraph.Graph
	// Costs maps every graph node (externals included, at zero Self) to
	// its outcome.
	Costs map[*callgraph.Node]*FuncCost
}

// Analyze computes the model for a built graph.
func Analyze(g *callgraph.Graph) *Model {
	m := &Model{Graph: g, Costs: map[*callgraph.Node]*FuncCost{}}
	for _, n := range g.Nodes {
		m.Costs[n] = &FuncCost{Node: n}
	}
	m.propagateCosts()
	m.propagateFreq()
	for _, fc := range m.Costs {
		fc.Score = fc.Freq * fc.Self
	}
	return m
}

// weight is loopWeight^depth.
func weight(depth int) float64 {
	w := 1.0
	for i := 0; i < depth; i++ {
		w *= loopWeight
	}
	return w
}

// propagateCosts fills Self and Total bottom-up: Graph.SCCs lists
// callees before callers, so one forward sweep suffices. Calls into the
// same SCC charge the callee's Self only, which cuts recursive cycles
// while still converging for mutual recursion.
func (m *Model) propagateCosts() {
	for _, scc := range m.Graph.SCCs {
		for _, n := range scc {
			fc := m.Costs[n]
			n.VisitItems(func(it *callgraph.Item) {
				w := weight(it.Depth)
				switch it.Kind {
				case callgraph.ItemWork:
					fc.Self += it.Cost * w
				case callgraph.ItemCall:
					switch {
					case it.Callee != nil && !it.Callee.External:
						callee := m.Costs[it.Callee]
						if it.Callee.SCC == n.SCC {
							fc.Total += w * callee.Self
						} else {
							fc.Total += w * callee.Total
						}
					case len(it.Targets) > 0:
						for _, t := range it.Targets {
							tc := m.Costs[t]
							share := w / float64(len(it.Targets))
							if t.External {
								fc.Total += share * extCallCost
							} else if t.SCC == n.SCC {
								fc.Total += share * tc.Self
							} else {
								fc.Total += share * tc.Total
							}
						}
					default:
						// External, parameter or unresolved call: flat charge.
						fc.Self += extCallCost * w
					}
				}
			})
			fc.Total += fc.Self
		}
	}
}

// propagateFreq seeds the roots at 1 and pushes frequency top-down
// (callers before callees: the SCC order reversed). Intra-SCC edges are
// skipped — recursive amplification is unbounded statically.
func (m *Model) propagateFreq() {
	for _, r := range m.Graph.Roots() {
		m.Costs[r].Freq = 1
	}
	for i := len(m.Graph.SCCs) - 1; i >= 0; i-- {
		for _, n := range m.Graph.SCCs[i] {
			fc := m.Costs[n]
			if fc.Freq == 0 {
				continue
			}
			n.VisitItems(func(it *callgraph.Item) {
				if it.Kind != callgraph.ItemCall {
					return
				}
				w := weight(it.Depth) * fc.Freq
				if it.Callee != nil && it.Callee.SCC != n.SCC {
					m.Costs[it.Callee].Freq += w
				}
				for _, t := range it.Targets {
					if t.SCC != n.SCC {
						m.Costs[t].Freq += w / float64(len(it.Targets))
					}
				}
			})
		}
	}
}

// Ranked returns the loaded functions sorted by descending Score
// (ties by ID), the model's static hot-spot prediction.
func (m *Model) Ranked() []*FuncCost {
	var out []*FuncCost
	for _, fc := range m.Costs {
		if fc.Node.External || fc.Node.Items == nil {
			continue
		}
		out = append(out, fc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node.ID < out[j].Node.ID
	})
	return out
}

// String summarizes one entry for logs and plans.
func (fc *FuncCost) String() string {
	return fmt.Sprintf("%s self=%.0f total=%.0f freq=%.2f score=%.0f",
		fc.Node.ID, fc.Self, fc.Total, fc.Freq, fc.Score)
}
