package thermal

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func newTestCPU(t *testing.T) *CPU {
	t.Helper()
	p := DefaultOpteronParams()
	p.NoiseAmpC = 0 // determinism for exact assertions
	c, err := NewCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultOpteronParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidation(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.Sockets = 0 },
		func(p *Params) { p.CoresPerSocket = 0 },
		func(p *Params) { p.FreqHz = 0 },
		func(p *Params) { p.IdleWPerCore = -1 },
		func(p *Params) { p.MaxWPerCore = p.IdleWPerCore - 1 },
		func(p *Params) { p.DieCapJPerK = 0 },
		func(p *Params) { p.DieToSinkKPerW = 0 },
		func(p *Params) { p.FanRPM = 0 },
	}
	for i, m := range mutations {
		p := DefaultOpteronParams()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
		if _, err := NewCPU(p); err == nil {
			t.Errorf("mutation %d: NewCPU should fail", i)
		}
	}
}

func TestIdleTemperatureNearPaperBaseline(t *testing.T) {
	// Paper Figure 2: idle CPU sensor ≈94 °F. Allow ±4 °F.
	c := newTestCPU(t)
	die, err := c.DieTempC(0)
	if err != nil {
		t.Fatal(err)
	}
	f := CToF(die)
	if f < 90 || f > 98 {
		t.Errorf("idle die = %.1f °F, want ≈94 °F", f)
	}
}

func TestBurnReachesPaperMax(t *testing.T) {
	// Paper Figure 2: one-core CPU burn drives the CPU sensor to ≈124 °F
	// over a ~60 s run.
	c := newTestCPU(t)
	if err := c.SetCoreUtilization(0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 240; i++ {
		if err := c.Step(250 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	die, _ := c.DieTempC(0)
	f := CToF(die)
	if f < 117 || f > 131 {
		t.Errorf("after 60 s burn die = %.1f °F, want ≈124 °F", f)
	}
	// The other socket stays cooler than the burning one.
	die1, _ := c.DieTempC(1)
	if die1 >= die {
		t.Errorf("idle socket (%.1f) not cooler than burning socket (%.1f)", die1, die)
	}
}

func TestCoolDownAfterBurn(t *testing.T) {
	c := newTestCPU(t)
	idle0, _ := c.DieTempC(0)
	_ = c.SetCoreUtilization(0, 1)
	for i := 0; i < 240; i++ {
		_ = c.Step(250 * time.Millisecond)
	}
	hot, _ := c.DieTempC(0)
	_ = c.SetCoreUtilization(0, 0)
	for i := 0; i < 1200; i++ {
		_ = c.Step(250 * time.Millisecond)
	}
	cool, _ := c.DieTempC(0)
	if !(cool < hot) {
		t.Errorf("no cooldown: %v → %v", hot, cool)
	}
	if math.Abs(cool-idle0) > 1.0 {
		t.Errorf("did not return to idle baseline: %v vs %v", cool, idle0)
	}
}

func TestSetCoreUtilizationErrors(t *testing.T) {
	c := newTestCPU(t)
	if err := c.SetCoreUtilization(-1, 0.5); err == nil {
		t.Error("negative core should fail")
	}
	if err := c.SetCoreUtilization(len(c.coreUtil), 0.5); err == nil {
		t.Error("out-of-range core should fail")
	}
	if err := c.SetCoreUtilization(0, 1.5); err == nil {
		t.Error("utilization >1 should fail")
	}
	if err := c.SetCoreUtilization(0, -0.1); err == nil {
		t.Error("utilization <0 should fail")
	}
	if err := c.SetCoreUtilization(1, 0.5); err != nil {
		t.Errorf("valid call failed: %v", err)
	}
	if got := c.coreUtil[1]; got != 0.5 {
		t.Errorf("CoreUtilization = %v", got)
	}
}

func TestFasterFanCoolsSteadyState(t *testing.T) {
	c := newTestCPU(t)
	for i := 0; i < len(c.coreUtil); i++ {
		_ = c.SetCoreUtilization(i, 1)
	}
	slow := func(rpm float64) float64 {
		c.p.FanRPM = rpm
		c.applyFan()
		return c.net.SteadyState()[c.dieIdx[0]]
	}
	t1500, t3000, t6000 := slow(1500), slow(3000), slow(6000)
	if !(t6000 < t3000 && t3000 < t1500) {
		t.Errorf("fan speed not monotone: 1500→%.2f 3000→%.2f 6000→%.2f", t1500, t3000, t6000)
	}
}

func TestMoboWarmerThanAmbientCoolerThanDie(t *testing.T) {
	c := newTestCPU(t)
	_ = c.SetCoreUtilization(0, 1)
	for i := 0; i < 400; i++ {
		_ = c.Step(250 * time.Millisecond)
	}
	die, _ := c.DieTempC(0)
	sink, _ := c.SinkTempC(0)
	mobo := c.MoboTempC()
	amb := c.AmbientTempC()
	if !(amb < mobo && mobo < die) {
		t.Errorf("ordering: amb %.1f mobo %.1f die %.1f", amb, mobo, die)
	}
	if !(sink < die) {
		t.Errorf("sink %.1f not cooler than die %.1f", sink, die)
	}
}

func TestSensorAccessorsRange(t *testing.T) {
	c := newTestCPU(t)
	if _, err := c.DieTempC(-1); err == nil {
		t.Error("negative socket should fail")
	}
	if _, err := c.DieTempC(2); err == nil {
		t.Error("socket 2 should fail on 2-socket box")
	}
	if _, err := c.SinkTempC(5); err == nil {
		t.Error("out-of-range sink should fail")
	}
	if c.Sockets() != 2 || len(c.coreUtil) != 4 {
		t.Errorf("Sockets/NumCores = %d/%d", c.Sockets(), len(c.coreUtil))
	}
}

func TestPerturbDeterministicAndVaried(t *testing.T) {
	base := DefaultOpteronParams()
	a := Perturb(base, 3, 42)
	b := Perturb(base, 3, 42)
	if !paramsEqual(a, b) {
		t.Error("Perturb not deterministic")
	}
	other := Perturb(base, 1, 42)
	if paramsEqual(a, other) {
		t.Error("different node IDs should differ")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("perturbed params invalid: %v", err)
	}
	// Perturbed nodes must spread their steady states (the paper's
	// node-to-node variance: some nodes genuinely run hotter).
	lo, hi := math.Inf(1), math.Inf(-1)
	for node := 1; node <= 4; node++ {
		c, err := NewCPU(Perturb(base, node, 42))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			_ = c.SetCoreUtilization(i, 1)
		}
		ss := c.net.SteadyState()[c.dieIdx[0]]
		if ss < lo {
			lo = ss
		}
		if ss > hi {
			hi = ss
		}
	}
	if hi-lo < 1.0 {
		t.Errorf("perturbed node spread only %.2f °C, want ≥1 °C", hi-lo)
	}
}

func paramsEqual(a, b Params) bool {
	return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b)
}

func TestNoiseBoundedAndSeeded(t *testing.T) {
	p := DefaultOpteronParams()
	p.NoiseAmpC = 0.5
	p.Seed = 11
	c1, err := NewCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		_ = c1.Step(250 * time.Millisecond)
		_ = c2.Step(250 * time.Millisecond)
		if c1.AmbientTempC() != c2.AmbientTempC() {
			t.Fatal("same seed produced different noise")
		}
		if d := math.Abs(c1.AmbientTempC() - p.AmbientC); d > 5*p.NoiseAmpC {
			t.Fatalf("noise excursion %v too large", d)
		}
	}
}

func TestOUProcessStationary(t *testing.T) {
	o := NewOUProcess(1.0, 5, 3)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := o.Step(1.0)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.1 {
		t.Errorf("OU mean = %v, want ≈0", mean)
	}
	if sd < 0.8 || sd > 1.2 {
		t.Errorf("OU std = %v, want ≈1", sd)
	}
	if o.Step(0) != o.x {
		t.Error("zero-dt step should not advance")
	}
}

func TestOUProcessClampsTau(t *testing.T) {
	o := NewOUProcess(1, -5, 1)
	if v := o.Step(1); math.IsNaN(v) {
		t.Error("non-positive tau should be clamped, not NaN")
	}
}

func BenchmarkCPUStep(b *testing.B) {
	p := DefaultOpteronParams()
	c, err := NewCPU(p)
	if err != nil {
		b.Fatal(err)
	}
	_ = c.SetCoreUtilization(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Step(250 * time.Millisecond)
	}
}
