package sensors

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"tempest/internal/thermal"
)

func newSimCPU(t *testing.T) (*thermal.CPU, *sync.Mutex) {
	t.Helper()
	p := thermal.DefaultOpteronParams()
	p.NoiseAmpC = 0
	cpu, err := thermal.NewCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	return cpu, &sync.Mutex{}
}

func TestSimProviderSensorSet(t *testing.T) {
	cpu, mu := newSimCPU(t)
	p := NewSimProvider(cpu, mu, "node0")
	ss, err := p.Sensors()
	if err != nil {
		t.Fatal(err)
	}
	// 2 sockets → 2 die + 2 sink + mobo + ambient = 6, the paper's
	// Opteron sensor count (Tables 2–3 show sensor1…sensor6).
	if len(ss) != 6 {
		t.Fatalf("sensor count = %d, want 6", len(ss))
	}
	for _, s := range ss {
		if !strings.HasPrefix(s.Name(), "node0/") {
			t.Errorf("name %q missing prefix", s.Name())
		}
		v, err := s.ReadC()
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if v < 20 || v > 60 {
			t.Errorf("%s = %v °C, implausible", s.Name(), v)
		}
		// Default quantisation: whole degrees C.
		if _, frac := math.Modf(v); frac != 0 {
			t.Errorf("%s = %v not whole-degree quantised", s.Name(), v)
		}
	}
}

func TestSimProviderNilCPU(t *testing.T) {
	p := &SimProvider{}
	if _, err := p.Sensors(); err != ErrNoSensors {
		t.Errorf("nil CPU err = %v, want ErrNoSensors", err)
	}
}

func TestSimProviderDefaults(t *testing.T) {
	cpu, mu := newSimCPU(t)
	p := &SimProvider{CPU: cpu, Mu: mu}
	ss, _ := p.Sensors()
	if !strings.HasPrefix(ss[0].Name(), "sim/") {
		t.Errorf("default prefix wrong: %s", ss[0].Name())
	}
	p.QuantC = -1 // disable quantisation
	ss, _ = p.Sensors()
	die, _ := cpu.DieTempC(0)
	v, _ := ss[0].ReadC()
	if v != die {
		t.Errorf("unquantised sensor = %v, truth %v", v, die)
	}
}

func TestSimProviderTracksModel(t *testing.T) {
	cpu, mu := newSimCPU(t)
	p := NewSimProvider(cpu, mu, "n")
	ss, _ := p.Sensors()
	die0 := ss[0] // n/temp1 = CPU 0 core
	before, _ := die0.ReadC()
	mu.Lock()
	_ = cpu.SetCoreUtilization(0, 1)
	for i := 0; i < 240; i++ {
		_ = cpu.Step(250 * time.Millisecond)
	}
	mu.Unlock()
	after, _ := die0.ReadC()
	if after <= before+5 {
		t.Errorf("sensor did not track burn: %v → %v", before, after)
	}
}

func TestExternalSensorTracksWithLag(t *testing.T) {
	cpu, mu := newSimCPU(t)
	var virt time.Duration
	ext := &ExternalSensor{
		CPU: cpu, Mu: mu,
		LagS: 2, NoiseC: 0.001, Seed: 5,
		ClockNow: func() time.Duration { return virt },
	}
	if !strings.Contains(ext.Name(), "probe0") || !strings.Contains(ext.Label(), "CPU 0") {
		t.Error("naming wrong")
	}
	first, err := ext.ReadC()
	if err != nil {
		t.Fatal(err)
	}
	truth0, _ := cpu.DieTempC(0)
	if math.Abs(first-truth0) > 0.1 {
		t.Errorf("probe primes at truth: %v vs %v", first, truth0)
	}
	// Heat the die, advance virtual time, read repeatedly: the probe must
	// converge to the new truth.
	mu.Lock()
	_ = cpu.SetCoreUtilization(0, 1)
	for i := 0; i < 240; i++ {
		_ = cpu.Step(250 * time.Millisecond)
	}
	mu.Unlock()
	truth, _ := cpu.DieTempC(0)
	var got float64
	for i := 0; i < 40; i++ {
		virt += 500 * time.Millisecond
		got, err = ext.ReadC()
		if err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(got-truth) > 0.5 {
		t.Errorf("probe did not converge: %v vs truth %v", got, truth)
	}
}

func TestExternalSensorLagsStep(t *testing.T) {
	// Immediately after a truth step, a laggy probe must read closer to
	// the old value than the new one.
	cpu, mu := newSimCPU(t)
	var virt time.Duration
	ext := &ExternalSensor{
		CPU: cpu, Mu: mu,
		LagS: 10, NoiseC: 0.0001, Seed: 5,
		ClockNow: func() time.Duration { return virt },
	}
	old, _ := ext.ReadC()
	mu.Lock()
	_ = cpu.SetCoreUtilization(0, 1)
	for i := 0; i < 240; i++ {
		_ = cpu.Step(250 * time.Millisecond)
	}
	truth, _ := cpu.DieTempC(0)
	mu.Unlock()
	virt += 1 * time.Second // only 0.1 lag constants later
	got, _ := ext.ReadC()
	if math.Abs(got-old) > math.Abs(got-truth) {
		t.Errorf("probe jumped instantly: old %v, got %v, truth %v", old, got, truth)
	}
}

func TestExternalSensorValidatesSimSensors(t *testing.T) {
	// §3.2 sensor validation: quantised motherboard-chip readings agree
	// with the independent external probe within the quantisation step
	// plus probe noise.
	cpu, mu := newSimCPU(t)
	var virt time.Duration
	sim := NewSimProvider(cpu, mu, "n")
	ss, _ := sim.Sensors()
	die0 := ss[0]
	ext := &ExternalSensor{
		CPU: cpu, Mu: mu, LagS: 0.5, NoiseC: 0.05, Seed: 9,
		ClockNow: func() time.Duration { return virt },
	}
	_, _ = ext.ReadC()
	mu.Lock()
	_ = cpu.SetCoreUtilization(0, 1)
	mu.Unlock()
	var maxDiff float64
	for i := 0; i < 120; i++ {
		mu.Lock()
		_ = cpu.Step(250 * time.Millisecond)
		mu.Unlock()
		virt += 250 * time.Millisecond
		a, err1 := die0.ReadC()
		b, err2 := ext.ReadC()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if d := math.Abs(a - b); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1.5 {
		t.Errorf("sensor disagrees with external probe by %v °C, want ≤1.5", maxDiff)
	}
}

func TestSimProviderWithRegistry(t *testing.T) {
	cpu, mu := newSimCPU(t)
	r := NewRegistry(NewSimProvider(cpu, mu, "node2"))
	if err := r.Discover(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 6 {
		t.Fatalf("Len = %d", r.Len())
	}
	if _, err := r.ReadAll(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimSensorRead(b *testing.B) {
	p := thermal.DefaultOpteronParams()
	cpu, err := thermal.NewCPU(p)
	if err != nil {
		b.Fatal(err)
	}
	var mu sync.Mutex
	ss, _ := NewSimProvider(cpu, &mu, "n").Sensors()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ss[0].ReadC(); err != nil {
			b.Fatal(err)
		}
	}
}
