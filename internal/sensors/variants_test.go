package sensors

import (
	"sync"
	"testing"
	"time"

	"tempest/internal/thermal"
)

// TestG5SevenSensors reproduces §3.4's sensor-count observation: a
// two-socket node with exhaust sensing, as on the G5, exposes 7 sensors.
func TestG5SevenSensors(t *testing.T) {
	p := thermal.DefaultOpteronParams()
	p.NoiseAmpC = 0
	cpu, err := thermal.NewCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	prov := NewSimProvider(cpu, &mu, "node")
	prov.IncludeExhaust = true
	ss, err := prov.Sensors()
	if err != nil {
		t.Fatal(err)
	}
	// 2 die + 2 sink + mobo + ambient + exhaust = 7 (paper: "up to 7
	// sensors on PowerPC G5 systems").
	if len(ss) != 7 {
		t.Fatalf("sensors with exhaust = %d, want 7", len(ss))
	}
	last := ss[len(ss)-1]
	if last.Label() != "Exhaust" {
		t.Errorf("seventh sensor = %q", last.Label())
	}
	// The exhaust reads between ambient and the hottest sink.
	mu.Lock()
	_ = cpu.SetCoreUtilization(0, 1)
	for i := 0; i < 200; i++ {
		_ = cpu.Step(250 * time.Millisecond)
	}
	mu.Unlock()
	ex, err := last.ReadC()
	if err != nil {
		t.Fatal(err)
	}
	amb := cpu.AmbientTempC()
	sink, _ := cpu.SinkTempC(0)
	if !(ex > amb && ex < sink+1) {
		t.Errorf("exhaust %v outside (ambient %v, sink %v]", ex, amb, sink)
	}
}

// TestCompactThreeSensors reproduces the "as few as 3 sensors" x86 boards:
// single socket, compact layout = die + mobo + ambient.
func TestCompactThreeSensors(t *testing.T) {
	p := thermal.DefaultOpteronParams()
	p.Sockets = 1
	p.CoresPerSocket = 2
	p.NoiseAmpC = 0
	cpu, err := thermal.NewCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	prov := NewSimProvider(cpu, &mu, "x86")
	prov.Compact = true
	ss, err := prov.Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 3 {
		t.Fatalf("compact sensors = %d, want 3", len(ss))
	}
	labels := []string{ss[0].Label(), ss[1].Label(), ss[2].Label()}
	want := []string{"CPU 0 Core", "M/B Temp", "Ambient"}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("sensor %d = %q, want %q", i, labels[i], want[i])
		}
	}
}
