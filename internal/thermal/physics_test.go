package thermal

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// physics_test.go checks conservation-style invariants of the RC model —
// the properties that make the substituted substrate trustworthy.

// TestSteadyStateEnergyBalance: at equilibrium, injected power equals the
// heat flowing into the boundary across its edges.
func TestSteadyStateEnergyBalance(t *testing.T) {
	n, err := NewNetwork(
		[]Node{
			{Name: "ambient", InitialC: 20},
			{Name: "sink", CapacitanceJPerK: 100, InitialC: 20},
			{Name: "dieA", CapacitanceJPerK: 40, InitialC: 20},
			{Name: "dieB", CapacitanceJPerK: 40, InitialC: 20},
		},
		[]Edge{
			{A: 2, B: 1, ResistKPerW: 0.2},
			{A: 3, B: 1, ResistKPerW: 0.3},
			{A: 1, B: 0, ResistKPerW: 0.25},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	_ = n.SetPower(2, 30)
	_ = n.SetPower(3, 20)
	ss := n.SteadyState()
	// Heat into ambient through the sink edge.
	flow := (ss[1] - ss[0]) / 0.25
	if math.Abs(flow-50) > 1e-6 {
		t.Errorf("boundary inflow %v W, want 50 W (conservation)", flow)
	}
	// Each die's edge carries exactly its own power at steady state.
	if d := (ss[2] - ss[1]) / 0.2; math.Abs(d-30) > 1e-6 {
		t.Errorf("dieA edge carries %v W, want 30", d)
	}
	if d := (ss[3] - ss[1]) / 0.3; math.Abs(d-20) > 1e-6 {
		t.Errorf("dieB edge carries %v W, want 20", d)
	}
}

// Property: transient temperatures are bounded by the steady state —
// a first-order RC chain heated from its initial equilibrium never
// overshoots.
func TestNoOvershootProperty(t *testing.T) {
	f := func(pRaw uint8, steps uint8) bool {
		n, err := NewNetwork(
			[]Node{
				{Name: "ambient", InitialC: 20},
				{Name: "sink", CapacitanceJPerK: 80, InitialC: 20},
				{Name: "die", CapacitanceJPerK: 30, InitialC: 20},
			},
			[]Edge{
				{A: 2, B: 1, ResistKPerW: 0.2},
				{A: 1, B: 0, ResistKPerW: 0.3},
			},
		)
		if err != nil {
			return false
		}
		p := float64(pRaw)
		_ = n.SetPower(2, p)
		ss := n.SteadyState()
		for k := 0; k < int(steps); k++ {
			if err := n.Step(time.Second); err != nil {
				return false
			}
			for i := 1; i <= 2; i++ {
				if n.Temperature(i) > ss[i]+1e-6 || n.Temperature(i) < 20-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSuperpositionProperty: the RC network is linear — the response to
// two power sources equals the sum of individual responses (relative to
// ambient).
func TestSuperpositionProperty(t *testing.T) {
	build := func() *Network {
		n, err := NewNetwork(
			[]Node{
				{Name: "ambient", InitialC: 0},
				{Name: "sink", CapacitanceJPerK: 60, InitialC: 0},
				{Name: "dieA", CapacitanceJPerK: 25, InitialC: 0},
				{Name: "dieB", CapacitanceJPerK: 25, InitialC: 0},
			},
			[]Edge{
				{A: 2, B: 1, ResistKPerW: 0.15},
				{A: 3, B: 1, ResistKPerW: 0.15},
				{A: 1, B: 0, ResistKPerW: 0.3},
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	run := func(pa, pb float64) []float64 {
		n := build()
		_ = n.SetPower(2, pa)
		_ = n.SetPower(3, pb)
		_ = n.Step(37 * time.Second)
		return n.temps
	}
	onlyA := run(40, 0)
	onlyB := run(0, 25)
	both := run(40, 25)
	for i := range both {
		if math.Abs(both[i]-(onlyA[i]+onlyB[i])) > 1e-6 {
			t.Errorf("node %d: superposition violated: %v vs %v+%v", i, both[i], onlyA[i], onlyB[i])
		}
	}
}

// TestCoolingIsHeatingMirrored: heating toward equilibrium and cooling
// back follow the same exponential (time symmetry of the linear system).
func TestCoolingIsHeatingMirrored(t *testing.T) {
	n, err := NewNetwork(
		[]Node{
			{Name: "ambient", InitialC: 20},
			{Name: "die", CapacitanceJPerK: 100, InitialC: 20},
		},
		[]Edge{{A: 1, B: 0, ResistKPerW: 0.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const p = 40.0
	_ = n.SetPower(1, p)
	_ = n.Step(25 * time.Second) // heat partway
	up := n.Temperature(1) - 20
	// Now cool from full equilibrium for the same duration.
	n.temps[1] = 20 + p*0.5
	_ = n.SetPower(1, 0)
	_ = n.Step(25 * time.Second)
	down := (20 + p*0.5) - n.Temperature(1)
	if math.Abs(up-down) > 0.01 {
		t.Errorf("heating rise %v ≠ cooling fall %v", up, down)
	}
}
