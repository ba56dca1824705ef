package sensors

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// writeFakeHwmon builds a sysfs-shaped tree:
//
//	root/hwmon0/name           "k8temp"
//	root/hwmon0/temp1_input    "40250"
//	root/hwmon0/temp1_label    "Core0 Temp"
//	root/hwmon0/temp2_input    "38000"
//	root/hwmon1/name           "w83627"
//	root/hwmon1/temp1_input    "33500"
func writeFakeHwmon(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	mk := func(rel, content string) {
		t.Helper()
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mk("hwmon0/name", "k8temp")
	mk("hwmon0/temp1_input", "40250")
	mk("hwmon0/temp1_label", "Core0 Temp")
	mk("hwmon0/temp2_input", "38000")
	mk("hwmon1/name", "w83627")
	mk("hwmon1/temp1_input", "33500")
	return root
}

func TestHwmonDiscovery(t *testing.T) {
	root := writeFakeHwmon(t)
	p := NewHwmonProvider(root)
	ss, err := p.Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 3 {
		t.Fatalf("found %d sensors, want 3", len(ss))
	}
	byName := map[string]Sensor{}
	for _, s := range ss {
		byName[s.Name()] = s
	}
	s1, ok := byName["hwmon0/temp1"]
	if !ok {
		t.Fatalf("missing hwmon0/temp1 in %v", byName)
	}
	if s1.Label() != "Core0 Temp" {
		t.Errorf("label = %q, want from temp1_label", s1.Label())
	}
	v, err := s1.ReadC()
	if err != nil || v != 40.25 {
		t.Errorf("ReadC = %v, %v; want 40.25", v, err)
	}
	s2 := byName["hwmon0/temp2"]
	if s2.Label() != "k8temp temp2" {
		t.Errorf("fallback label = %q", s2.Label())
	}
	if v, _ := byName["hwmon1/temp1"].ReadC(); v != 33.5 {
		t.Errorf("hwmon1 read = %v", v)
	}
}

func TestHwmonMissingRoot(t *testing.T) {
	p := NewHwmonProvider(filepath.Join(t.TempDir(), "nope"))
	if _, err := p.Sensors(); !errors.Is(err, ErrNoSensors) {
		t.Errorf("missing root err = %v, want ErrNoSensors", err)
	}
}

func TestHwmonEmptyRoot(t *testing.T) {
	p := NewHwmonProvider(t.TempDir())
	if _, err := p.Sensors(); !errors.Is(err, ErrNoSensors) {
		t.Errorf("empty root err = %v, want ErrNoSensors", err)
	}
}

func TestHwmonDefaultRoot(t *testing.T) {
	if NewHwmonProvider("").Root != DefaultHwmonRoot {
		t.Error("empty root should default")
	}
}

func TestHwmonGarbageValue(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "hwmon0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "hwmon0", "temp1_input"), []byte("toasty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := NewHwmonProvider(root)
	ss, err := p.Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss[0].ReadC(); err == nil {
		t.Error("non-numeric sysfs value should error on read")
	}
}

func TestHwmonSensorVanishes(t *testing.T) {
	root := writeFakeHwmon(t)
	p := NewHwmonProvider(root)
	ss, err := p.Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(root, "hwmon0")); err != nil {
		t.Fatal(err)
	}
	var gone Sensor
	for _, s := range ss {
		if s.Name() == "hwmon0/temp1" {
			gone = s
		}
	}
	if _, err := gone.ReadC(); err == nil {
		t.Error("reading a removed sensor should error")
	}
}

func TestHwmonRootNotADirectory(t *testing.T) {
	// A root that exists but is a plain file is a real configuration error
	// (wrong -hwmon flag), not "host has no sensors": the error must not
	// be ErrNoSensors so the caller doesn't silently fall back to sim.
	root := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(root, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHwmonProvider(root).Sensors(); err == nil || errors.Is(err, ErrNoSensors) {
		t.Errorf("file-as-root err = %v, want a real error", err)
	}
}

func TestHwmonUnreadableChipSkipped(t *testing.T) {
	// A chip directory that can't be opened (here: a dangling symlink, the
	// shape of a device unbinding mid-scan) is skipped; the healthy chip
	// is still discovered.
	root := writeFakeHwmon(t)
	if err := os.RemoveAll(filepath.Join(root, "hwmon1")); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(root, "gone"), filepath.Join(root, "hwmon1")); err != nil {
		t.Fatal(err)
	}
	ss, err := NewHwmonProvider(root).Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 {
		t.Fatalf("found %d sensors, want the 2 on the healthy chip", len(ss))
	}
	for _, s := range ss {
		if !filepath.HasPrefix(s.Name(), "hwmon0") {
			t.Errorf("unexpected sensor %s from broken chip", s.Name())
		}
	}
}

func TestHwmonEmptyInputValue(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "hwmon0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "hwmon0", "temp1_input"), []byte("\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ss, err := NewHwmonProvider(root).Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss[0].ReadC(); err == nil {
		t.Error("empty sysfs value should error on read")
	}
}

func TestHwmonInputIsDirectory(t *testing.T) {
	// temp1_input as a directory: discovery sees the name, the read fails.
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "hwmon0", "temp1_input"), 0o755); err != nil {
		t.Fatal(err)
	}
	ss, err := NewHwmonProvider(root).Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss[0].ReadC(); err == nil {
		t.Error("directory-shaped input should error on read")
	}
}

func TestHwmonBrokenLabelFallsBack(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "hwmon0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "hwmon0", "temp1_input"), []byte("41000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Label file is a dangling symlink: unreadable, so the synthesised
	// "<chip> tempN" label applies.
	if err := os.Symlink(filepath.Join(root, "gone"), filepath.Join(root, "hwmon0", "temp1_label")); err != nil {
		t.Fatal(err)
	}
	ss, err := NewHwmonProvider(root).Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if ss[0].Label() != "hwmon0 temp1" {
		t.Errorf("label = %q, want fallback", ss[0].Label())
	}
}

// TestHwmonResilientQuarantinesVanishedSensor wires the real hwmon reader
// through the Resilient wrapper: when a chip unbinds mid-run the sensor is
// quarantined after repeated failures while its sibling keeps reporting —
// the degraded mode tempd rides through.
func TestHwmonResilientQuarantinesVanishedSensor(t *testing.T) {
	root := writeFakeHwmon(t)
	r := NewRegistry(NewHwmonProvider(root))
	if err := r.Discover(); err != nil {
		t.Fatal(err)
	}
	r.WrapResilient(ResilientConfig{
		MaxRetries:      0,
		QuarantineAfter: 2,
		ProbeEvery:      100,
		Sleep:           func(d time.Duration) {},
	})
	// hwmon1/temp1 vanishes (sorted order: hwmon0/temp1, hwmon0/temp2,
	// hwmon1/temp1 — index 2).
	if err := os.RemoveAll(filepath.Join(root, "hwmon1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		vals, err := r.ReadAll()
		if err == nil {
			t.Fatal("expected per-sensor failure")
		}
		if vals[0] != 40.25 || vals[1] != 38 {
			t.Fatalf("healthy sensors disturbed: %v", vals)
		}
		if !(vals[2] != vals[2]) { // NaN contract
			t.Fatalf("vanished sensor slot = %v, want NaN", vals[2])
		}
	}
	hs := r.Health()
	if hs[2].State != StateQuarantined {
		t.Errorf("vanished sensor state = %v, want quarantined", hs[2].State)
	}
	if hs[0].State != StateHealthy || hs[1].State != StateHealthy {
		t.Errorf("healthy sensors state = %v/%v", hs[0].State, hs[1].State)
	}
}

func TestHwmonWithRegistryAndQuantization(t *testing.T) {
	root := writeFakeHwmon(t)
	r := NewRegistry(NewHwmonProvider(root))
	if err := r.Discover(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	vals, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 40.25 {
		t.Errorf("first sorted sensor = %v, want hwmon0/temp1=40.25", vals[0])
	}
}
