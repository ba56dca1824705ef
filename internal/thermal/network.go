// Package thermal models the heat flow Tempest observes through sensors.
//
// The paper measures real silicon; this reproduction substitutes a lumped
// RC thermal network — the same abstraction HotSpot [13,14] uses — so that
// every downstream stage (sensor sampling, tempd, the parser, hot-spot
// analysis) runs against physically plausible dynamics: exponential
// heating toward a power-dependent steady state, exponential cooling
// toward ambient, and per-node heterogeneity that makes "some nodes run
// hotter than others" (§4.3) emerge from parameters rather than scripting.
//
// Temperatures are degrees Celsius internally; report formatting converts
// to Fahrenheit, the unit of the paper's figures and tables.
package thermal

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// CToF converts Celsius to Fahrenheit.
func CToF(c float64) float64 { return c*9/5 + 32 }

// Node is one lump in the RC network: either a dynamic node with thermal
// capacitance, or a boundary node pinned at a fixed temperature (ambient).
type Node struct {
	Name string
	// CapacitanceJPerK is the thermal capacitance in joules per kelvin.
	// Zero marks a boundary node whose temperature only changes through
	// SetBoundary (ambient drift), never through heat flow.
	CapacitanceJPerK float64
	// InitialC is the starting temperature in °C (and the fixed
	// temperature for boundary nodes until SetBoundary).
	InitialC float64
}

// Boundary reports whether the node is a fixed-temperature boundary.
func (n Node) Boundary() bool { return n.CapacitanceJPerK == 0 }

// Edge is a thermal resistance between two nodes, in kelvin per watt.
type Edge struct {
	A, B        int
	ResistKPerW float64
}

// Network is an RC thermal network integrated with explicit Euler using
// automatic sub-stepping for stability. It is not safe for concurrent use;
// the cluster package serialises access per node.
type Network struct {
	nodes []Node
	edges []Edge
	gs    []float64 // per-edge conductance, W/K (mutable: fan control)
	temps []float64 // current temperature, °C
	power []float64 // current injected power, W
	mid   []float64 // scratch: midpoint state for RK2
	next  []float64 // scratch: next state

	// adjacency: for each node, (peer, edge index) pairs.
	adj [][]adjEntry

	// maxStable is the largest Euler step (seconds) stable for every
	// dynamic node: min over nodes of C_i / Σ_j g_ij, halved for margin.
	maxStable float64
}

type adjEntry struct {
	peer int
	edge int
}

// NewNetwork validates and builds a network. Rules: at least one node;
// every edge references distinct, in-range nodes with positive resistance;
// every dynamic node must be connected (directly or transitively) to a
// boundary node, otherwise its temperature would integrate without bound.
func NewNetwork(nodes []Node, edges []Edge) (*Network, error) {
	if len(nodes) == 0 {
		return nil, errors.New("thermal: network needs at least one node")
	}
	for i, n := range nodes {
		if n.CapacitanceJPerK < 0 {
			return nil, fmt.Errorf("thermal: node %d (%s) has negative capacitance", i, n.Name)
		}
	}
	adj := make([][]adjEntry, len(nodes))
	gs := make([]float64, len(edges))
	for k, e := range edges {
		if e.A < 0 || e.A >= len(nodes) || e.B < 0 || e.B >= len(nodes) {
			return nil, fmt.Errorf("thermal: edge %d references node out of range", k)
		}
		if e.A == e.B {
			return nil, fmt.Errorf("thermal: edge %d is a self-loop on node %d", k, e.A)
		}
		if e.ResistKPerW <= 0 {
			return nil, fmt.Errorf("thermal: edge %d resistance %v must be positive", k, e.ResistKPerW)
		}
		gs[k] = 1 / e.ResistKPerW
		adj[e.A] = append(adj[e.A], adjEntry{peer: e.B, edge: k})
		adj[e.B] = append(adj[e.B], adjEntry{peer: e.A, edge: k})
	}

	// Reachability from boundary nodes.
	reach := make([]bool, len(nodes))
	var stack []int
	hasBoundary := false
	for i, n := range nodes {
		if n.Boundary() {
			hasBoundary = true
			reach[i] = true
			stack = append(stack, i)
		}
	}
	if !hasBoundary {
		return nil, errors.New("thermal: network has no boundary (ambient) node")
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range adj[i] {
			if !reach[a.peer] {
				reach[a.peer] = true
				stack = append(stack, a.peer)
			}
		}
	}
	for i, ok := range reach {
		if !ok {
			return nil, fmt.Errorf("thermal: node %d (%s) is not connected to any boundary node", i, nodes[i].Name)
		}
	}

	n := &Network{
		nodes: append([]Node(nil), nodes...),
		edges: append([]Edge(nil), edges...),
		gs:    gs,
		temps: make([]float64, len(nodes)),
		power: make([]float64, len(nodes)),
		mid:   make([]float64, len(nodes)),
		next:  make([]float64, len(nodes)),
		adj:   adj,
	}
	for i, nd := range nodes {
		n.temps[i] = nd.InitialC
	}
	n.recomputeStability()
	return n, nil
}

func (n *Network) recomputeStability() {
	n.maxStable = math.Inf(1)
	for i, nd := range n.nodes {
		if nd.Boundary() {
			continue
		}
		var gsum float64
		for _, a := range n.adj[i] {
			gsum += n.gs[a.edge]
		}
		if gsum > 0 {
			// τ/10 keeps the RK2 midpoint scheme both stable and
			// accurate to well under 1 % of any transient.
			if s := nd.CapacitanceJPerK / gsum / 10; s < n.maxStable {
				n.maxStable = s
			}
		}
	}
	if math.IsInf(n.maxStable, 1) {
		n.maxStable = 1 // boundary-only networks: any step works
	}
}

// Temperature returns the current temperature of node i in °C.
func (n *Network) Temperature(i int) float64 { return n.temps[i] }

// SetPower sets the power injected into node i, in watts. Injecting into a
// boundary node is allowed but has no effect (ambient is an infinite sink).
func (n *Network) SetPower(i int, watts float64) error {
	if i < 0 || i >= len(n.nodes) {
		return fmt.Errorf("thermal: power target %d out of range", i)
	}
	if watts < 0 {
		return fmt.Errorf("thermal: negative power %v W", watts)
	}
	n.power[i] = watts
	return nil
}

// SetBoundary changes the pinned temperature of boundary node i (ambient
// drift, room air conditioning cycles). It is an error on a dynamic node.
func (n *Network) SetBoundary(i int, tempC float64) error {
	if i < 0 || i >= len(n.nodes) {
		return fmt.Errorf("thermal: boundary target %d out of range", i)
	}
	if !n.nodes[i].Boundary() {
		return fmt.Errorf("thermal: node %d (%s) is not a boundary node", i, n.nodes[i].Name)
	}
	n.temps[i] = tempC
	return nil
}

// SetEdgeResistance changes edge k's thermal resistance (fan speed changes
// the heatsink-to-ambient path). The resistance must stay positive.
func (n *Network) SetEdgeResistance(k int, rKPerW float64) error {
	if k < 0 || k >= len(n.edges) {
		return fmt.Errorf("thermal: edge %d out of range", k)
	}
	if rKPerW <= 0 {
		return fmt.Errorf("thermal: edge resistance %v must be positive", rKPerW)
	}
	n.edges[k].ResistKPerW = rKPerW
	n.gs[k] = 1 / rKPerW
	n.recomputeStability()
	return nil
}

// Step integrates the network forward by dt with the current power
// injection, sub-stepping as needed for stability. Negative dt is an
// error; zero dt is a no-op.
func (n *Network) Step(dt time.Duration) error {
	if dt < 0 {
		return fmt.Errorf("thermal: negative step %v", dt)
	}
	remaining := dt.Seconds()
	for remaining > 1e-15 {
		h := remaining
		if h > n.maxStable {
			h = n.maxStable
		}
		n.rk2Step(h)
		remaining -= h
	}
	return nil
}

// deriv writes dT/dt for each node of state t into out.
func (n *Network) deriv(t, out []float64) {
	for i, nd := range n.nodes {
		if nd.Boundary() {
			out[i] = 0
			continue
		}
		flow := n.power[i]
		for _, a := range n.adj[i] {
			flow += (t[a.peer] - t[i]) * n.gs[a.edge]
		}
		out[i] = flow / nd.CapacitanceJPerK
	}
}

// rk2Step advances one explicit midpoint (RK2) step of size h seconds.
func (n *Network) rk2Step(h float64) {
	// next temporarily holds k1, then the final state.
	n.deriv(n.temps, n.next)
	for i := range n.temps {
		n.mid[i] = n.temps[i] + h/2*n.next[i]
	}
	n.deriv(n.mid, n.next)
	for i := range n.temps {
		n.temps[i] += h * n.next[i]
	}
}

// SteadyState solves for the equilibrium temperatures under the current
// power injection using Gauss-Seidel iteration. It does not modify the
// live state; it returns the equilibrium vector in °C.
func (n *Network) SteadyState() []float64 {
	t := append([]float64(nil), n.temps...)
	const iters = 20000
	for k := 0; k < iters; k++ {
		var maxDelta float64
		for i, nd := range n.nodes {
			if nd.Boundary() {
				continue
			}
			var gsum, flow float64
			for _, a := range n.adj[i] {
				g := n.gs[a.edge]
				gsum += g
				flow += t[a.peer] * g
			}
			if gsum == 0 {
				continue
			}
			nt := (n.power[i] + flow) / gsum
			if d := math.Abs(nt - t[i]); d > maxDelta {
				maxDelta = d
			}
			t[i] = nt
		}
		if maxDelta < 1e-9 {
			break
		}
	}
	return t
}
