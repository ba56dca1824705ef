package thermal

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// simpleRC builds ambient(20°C) — R=0.5 — die(C=100), a first-order lag.
func simpleRC(t *testing.T) *Network {
	t.Helper()
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
	return n
}

func TestUnitConversions(t *testing.T) {
	cases := []struct{ c, f float64 }{{0, 32}, {100, 212}, {39, 102.2}, {45, 113}, {-40, -40}}
	for _, cse := range cases {
		if got := CToF(cse.c); math.Abs(got-cse.f) > 1e-9 {
			t.Errorf("CToF(%v) = %v, want %v", cse.c, got, cse.f)
		}
	}
}

func TestNewNetworkValidation(t *testing.T) {
	amb := Node{Name: "ambient"}
	die := Node{Name: "die", CapacitanceJPerK: 10}
	cases := []struct {
		name  string
		nodes []Node
		edges []Edge
	}{
		{"empty", nil, nil},
		{"no boundary", []Node{die}, nil},
		{"disconnected dynamic", []Node{amb, die}, nil},
		{"edge out of range", []Node{amb, die}, []Edge{{A: 0, B: 5, ResistKPerW: 1}}},
		{"self loop", []Node{amb, die}, []Edge{{A: 1, B: 1, ResistKPerW: 1}}},
		{"zero resistance", []Node{amb, die}, []Edge{{A: 0, B: 1, ResistKPerW: 0}}},
		{"negative capacitance", []Node{amb, {Name: "x", CapacitanceJPerK: -1}}, []Edge{{A: 0, B: 1, ResistKPerW: 1}}},
	}
	for _, c := range cases {
		if _, err := NewNetwork(c.nodes, c.edges); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestFirstOrderStepMatchesAnalytic(t *testing.T) {
	// die with power P: T(t) = T_amb + P·R·(1 − e^{−t/RC})
	n := simpleRC(t)
	if err := n.SetPower(1, 40); err != nil {
		t.Fatal(err)
	}
	const R, C, P, Tamb = 0.5, 100.0, 40.0, 20.0
	for _, secs := range []float64{10, 50, 200} {
		n = simpleRC(t)
		_ = n.SetPower(1, P)
		if err := n.Step(time.Duration(secs * float64(time.Second))); err != nil {
			t.Fatal(err)
		}
		want := Tamb + P*R*(1-math.Exp(-secs/(R*C)))
		got := n.Temperature(1)
		if math.Abs(got-want) > 0.1 {
			t.Errorf("T(%vs) = %.3f°C, analytic %.3f°C", secs, got, want)
		}
	}
}

func TestSteadyStateFirstOrder(t *testing.T) {
	n := simpleRC(t)
	_ = n.SetPower(1, 40)
	ss := n.SteadyState()
	if math.Abs(ss[1]-40) > 1e-6 { // 20 + 40·0.5
		t.Errorf("steady state = %v, want 40°C", ss[1])
	}
	if ss[0] != 20 {
		t.Errorf("boundary moved to %v", ss[0])
	}
	// SteadyState must not mutate live temps.
	if n.Temperature(1) != 20 {
		t.Errorf("SteadyState mutated live state: %v", n.Temperature(1))
	}
}

func TestCoolingTowardAmbient(t *testing.T) {
	n := simpleRC(t)
	_ = n.SetPower(1, 40)
	_ = n.Step(500 * time.Second) // near steady 40°C
	hot := n.Temperature(1)
	_ = n.SetPower(1, 0)
	_ = n.Step(500 * time.Second)
	cool := n.Temperature(1)
	if cool >= hot {
		t.Errorf("no cooling: %v then %v", hot, cool)
	}
	if math.Abs(cool-20) > 0.1 {
		t.Errorf("did not return to ambient: %v", cool)
	}
}

func TestMorePowerHotterSteadyState(t *testing.T) {
	n := simpleRC(t)
	var prev float64 = -1e9
	for _, p := range []float64{0, 10, 20, 40, 80} {
		_ = n.SetPower(1, p)
		ss := n.SteadyState()[1]
		if ss <= prev {
			t.Errorf("steady state not monotone in power: P=%v gives %v after %v", p, ss, prev)
		}
		prev = ss
	}
}

func TestStepErrors(t *testing.T) {
	n := simpleRC(t)
	if err := n.Step(-time.Second); err == nil {
		t.Error("negative step should fail")
	}
	if err := n.Step(0); err != nil {
		t.Errorf("zero step should be a no-op, got %v", err)
	}
	if err := n.SetPower(5, 1); err == nil {
		t.Error("out-of-range power target should fail")
	}
	if err := n.SetPower(1, -1); err == nil {
		t.Error("negative power should fail")
	}
}

func TestSetBoundary(t *testing.T) {
	n := simpleRC(t)
	if err := n.SetBoundary(0, 25); err != nil {
		t.Fatal(err)
	}
	if n.Temperature(0) != 25 {
		t.Errorf("boundary = %v, want 25", n.Temperature(0))
	}
	if err := n.SetBoundary(1, 25); err == nil {
		t.Error("SetBoundary on dynamic node should fail")
	}
	if err := n.SetBoundary(9, 25); err == nil {
		t.Error("out-of-range boundary should fail")
	}
	// Equilibrium follows the new ambient.
	_ = n.Step(1000 * time.Second)
	if math.Abs(n.Temperature(1)-25) > 0.1 {
		t.Errorf("die did not follow boundary: %v", n.Temperature(1))
	}
}

func TestSetEdgeResistance(t *testing.T) {
	n := simpleRC(t)
	_ = n.SetPower(1, 40)
	if err := n.SetEdgeResistance(0, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := 1 / n.gs[0]; got != 0.25 {
		t.Errorf("EdgeResistance = %v", got)
	}
	ss := n.SteadyState()[1]
	if math.Abs(ss-30) > 1e-6 { // 20 + 40·0.25
		t.Errorf("steady after resistance change = %v, want 30", ss)
	}
	if err := n.SetEdgeResistance(0, 0); err == nil {
		t.Error("zero resistance should fail")
	}
	if err := n.SetEdgeResistance(3, 1); err == nil {
		t.Error("out-of-range edge should fail")
	}
}

func TestTwoStageChainOrdering(t *testing.T) {
	// die → sink → ambient: die must always be at least as hot as sink
	// under positive die power, and both above ambient at steady state.
	n, err := NewNetwork(
		[]Node{
			{Name: "ambient", InitialC: 20},
			{Name: "sink", CapacitanceJPerK: 200, InitialC: 20},
			{Name: "die", CapacitanceJPerK: 50, InitialC: 20},
		},
		[]Edge{
			{A: 2, B: 1, ResistKPerW: 0.15},
			{A: 1, B: 0, ResistKPerW: 0.35},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	_ = n.SetPower(2, 60)
	for i := 0; i < 100; i++ {
		_ = n.Step(2 * time.Second)
		die, sink, amb := n.Temperature(2), n.Temperature(1), n.Temperature(0)
		if die < sink-1e-9 || sink < amb-1e-9 {
			t.Fatalf("ordering violated at step %d: die %.2f sink %.2f amb %.2f", i, die, sink, amb)
		}
	}
	ss := n.SteadyState()
	wantDie := 20 + 60*(0.15+0.35)
	if math.Abs(ss[2]-wantDie) > 1e-6 {
		t.Errorf("die steady = %v, want %v", ss[2], wantDie)
	}
}

// Property: temperatures stay within [min(initial,ambient), ambient+P·Rtotal]
// bounds for the first-order system under any power in [0,200].
func TestBoundedTemperatureProperty(t *testing.T) {
	f := func(pRaw uint8, secsRaw uint8) bool {
		n, err := NewNetwork(
			[]Node{
				{Name: "ambient", InitialC: 20},
				{Name: "die", CapacitanceJPerK: 100, InitialC: 20},
			},
			[]Edge{{A: 1, B: 0, ResistKPerW: 0.5}},
		)
		if err != nil {
			return false
		}
		p := float64(pRaw)
		_ = n.SetPower(1, p)
		_ = n.Step(time.Duration(secsRaw) * time.Second)
		got := n.Temperature(1)
		return got >= 20-1e-9 && got <= 20+p*0.5+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSubSteppingStableForStiffNetwork(t *testing.T) {
	// Tiny capacitance with strong coupling would explode without
	// sub-stepping at a 1 s step.
	n, err := NewNetwork(
		[]Node{
			{Name: "ambient", InitialC: 20},
			{Name: "die", CapacitanceJPerK: 0.5, InitialC: 20},
		},
		[]Edge{{A: 1, B: 0, ResistKPerW: 0.01}},
	)
	if err != nil {
		t.Fatal(err)
	}
	_ = n.SetPower(1, 100)
	if err := n.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	got := n.Temperature(1)
	if math.IsNaN(got) || math.IsInf(got, 0) || got < 20 || got > 22 {
		t.Errorf("stiff network diverged: %v (want ≈21)", got)
	}
}

func BenchmarkNetworkStep(b *testing.B) {
	n, _ := NewNetwork(
		[]Node{
			{Name: "ambient", InitialC: 20},
			{Name: "sink", CapacitanceJPerK: 200, InitialC: 20},
			{Name: "die", CapacitanceJPerK: 50, InitialC: 20},
		},
		[]Edge{
			{A: 2, B: 1, ResistKPerW: 0.15},
			{A: 1, B: 0, ResistKPerW: 0.35},
		},
	)
	_ = n.SetPower(2, 60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = n.Step(250 * time.Millisecond)
	}
}
