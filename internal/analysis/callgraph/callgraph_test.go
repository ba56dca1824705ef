package callgraph_test

import (
	"path/filepath"
	"testing"

	"tempest/internal/analysis"
	"tempest/internal/analysis/callgraph"
	"tempest/internal/analysis/costmodel"
)

// loadEdge builds the graph over the testdata "edge" fixture package.
func loadEdge(t *testing.T) *callgraph.Graph {
	t.Helper()
	pkgs, err := analysis.Load(analysis.LoadConfig{
		Dir:       ".",
		ExtraRoot: filepath.Join("testdata", "src"),
	}, "edge")
	if err != nil {
		t.Fatal(err)
	}
	g, err := callgraph.Build(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// edges returns the IDs of n's resolved callees, with edge kinds.
func edges(t *testing.T, g *callgraph.Graph, id string) map[string]callgraph.EdgeKind {
	t.Helper()
	n := g.Nodes[id]
	if n == nil {
		t.Fatalf("node %q not in graph", id)
	}
	out := map[string]callgraph.EdgeKind{}
	for _, e := range n.Out {
		out[e.Callee.ID] = e.Kind
	}
	return out
}

func TestMutualRecursionSharesSCC(t *testing.T) {
	g := loadEdge(t)
	ping, pong := g.Nodes["edge.Ping"], g.Nodes["edge.Pong"]
	if ping == nil || pong == nil {
		t.Fatal("Ping/Pong nodes missing")
	}
	if ping.SCC != pong.SCC {
		t.Errorf("mutual recursion split across SCCs: Ping %d, Pong %d", ping.SCC, pong.SCC)
	}
	if _, ok := edges(t, g, "edge.Ping")["edge.Pong"]; !ok {
		t.Error("Ping -> Pong edge missing")
	}
	if _, ok := edges(t, g, "edge.Pong")["edge.Ping"]; !ok {
		t.Error("Pong -> Ping edge missing")
	}

	// Cost propagation over the cycle must converge to finite values
	// (the intra-SCC cut charges callee Self, never chasing Total).
	m := costmodel.Analyze(g)
	fc := m.Costs[g.Nodes["edge.Ping"]]
	if fc == nil {
		t.Fatal("no cost for edge.Ping")
	}
	if fc.Total <= 0 || fc.Total > 1e12 {
		t.Errorf("SCC propagation diverged: Ping Total = %g", fc.Total)
	}
}

func TestMethodValueResolves(t *testing.T) {
	g := loadEdge(t)
	out := edges(t, g, "edge.UseMethodValue")
	if _, ok := out["edge.(*Counter).Inc"]; !ok {
		t.Errorf("method value call did not resolve to (*Counter).Inc; edges = %v", out)
	}
}

func TestGenericInstantiation(t *testing.T) {
	g := loadEdge(t)
	out := edges(t, g, "edge.UseGenerics")
	if _, ok := out["edge.Apply"]; !ok {
		t.Errorf("generic call did not resolve to the declared Apply node; edges = %v", out)
	}
	// Both instantiations share one node — no per-type-arg duplicates.
	for id := range g.Nodes {
		if id != "edge.Apply" && len(id) > len("edge.Apply") && id[:len("edge.Apply")] == "edge.Apply" {
			t.Errorf("instantiation produced a duplicate node %q", id)
		}
	}
	// The function arguments passed into Apply must reach their callees:
	// Apply invokes its parameter, so double/shout get bound edges.
	m := costmodel.Analyze(g)
	for _, leaf := range []string{"edge.double", "edge.shout"} {
		fc := m.Costs[g.Nodes[leaf]]
		if fc == nil {
			t.Fatalf("no cost entry for %s", leaf)
		}
		if fc.Freq <= 0 {
			t.Errorf("%s unreachable through the generic parameter binding (Freq = %g)", leaf, fc.Freq)
		}
	}
}

func TestInterfaceDevirtualization(t *testing.T) {
	g := loadEdge(t)

	// One implementer: the site devirtualizes to exactly it.
	lone := edges(t, g, "edge.CallLonely")
	if kind, ok := lone["edge.onlyImpl.Solo"]; !ok || kind != callgraph.EdgeDevirt {
		t.Errorf("single-implementer site = %v, want devirt edge to edge.onlyImpl.Solo", lone)
	}
	if len(lone) != 1 {
		t.Errorf("single-implementer site has %d edges: %v", len(lone), lone)
	}

	// Many implementers (3 <= maxDevirt): fan out to all of them.
	crowd := edges(t, g, "edge.CallCrowded")
	for _, want := range []string{"edge.implA.Pick", "edge.implB.Pick", "edge.implC.Pick"} {
		if kind, ok := crowd[want]; !ok || kind != callgraph.EdgeDevirt {
			t.Errorf("crowded site missing devirt edge to %s: %v", want, crowd)
		}
	}

	// Zero implementers: the site stays dynamic — no edges, charged as
	// work, and the model still prices the caller.
	orphan := edges(t, g, "edge.CallOrphan")
	if len(orphan) != 0 {
		t.Errorf("no-implementer site grew edges: %v", orphan)
	}
	m := costmodel.Analyze(g)
	if fc := m.Costs[g.Nodes["edge.CallOrphan"]]; fc == nil || fc.Self <= 0 {
		t.Errorf("dynamic call site not charged as work: %+v", fc)
	}
}
