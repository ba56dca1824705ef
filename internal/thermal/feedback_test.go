package thermal

import (
	"testing"
	"time"
)

// feedback_test.go covers the thermal feedback mechanisms the paper's
// experiments explicitly disable (§4.1): the DVFS trip governor and fan
// regulation. The reproduction implements them so their effect on
// profiles is demonstrable rather than assumed.

func TestAutoDVFSCapsTemperature(t *testing.T) {
	base := DefaultOpteronParams()
	base.NoiseAmpC = 0

	runPeak := func(auto bool) (peakC float64, levelSeen int) {
		p := base
		p.DVFSEnabled = auto
		p.DVFSAuto = auto
		p.DVFSTripC = 45
		c, err := NewCPU(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(c.coreUtil); i++ {
			_ = c.SetCoreUtilization(i, 1)
		}
		for i := 0; i < 1200; i++ { // 5 minutes at 250 ms
			_ = c.Step(250 * time.Millisecond)
			if d, _ := c.DieTempC(0); d > peakC {
				peakC = d
			}
			if c.dvfsLevel > levelSeen {
				levelSeen = c.dvfsLevel
			}
		}
		return peakC, levelSeen
	}

	openPeak, openLevel := runPeak(false)
	capPeak, capLevel := runPeak(true)
	if openLevel != 0 {
		t.Errorf("governor off but level moved to %d", openLevel)
	}
	if capLevel == 0 {
		t.Error("governor never engaged")
	}
	if capPeak >= openPeak-2 {
		t.Errorf("governor barely helped: %.1f vs %.1f °C", capPeak, openPeak)
	}
	// The trip point is respected within a few degrees of overshoot.
	if capPeak > 45+6 {
		t.Errorf("governed peak %.1f °C far above 45 °C trip", capPeak)
	}
}

func TestAutoDVFSRecovers(t *testing.T) {
	p := DefaultOpteronParams()
	p.NoiseAmpC = 0
	p.DVFSEnabled = true
	p.DVFSAuto = true
	p.DVFSTripC = 45
	c, err := NewCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(c.coreUtil); i++ {
		_ = c.SetCoreUtilization(i, 1)
	}
	for i := 0; i < 1200; i++ {
		_ = c.Step(250 * time.Millisecond)
	}
	if c.dvfsLevel == 0 {
		t.Fatal("governor never stepped down under load")
	}
	for i := range c.coreUtil {
		_ = c.SetCoreUtilization(i, 0)
	}
	for i := 0; i < 2400; i++ {
		_ = c.Step(250 * time.Millisecond)
	}
	if c.dvfsLevel != 0 {
		t.Errorf("governor stuck at level %d after cooldown", c.dvfsLevel)
	}
}

func TestAutoDVFSDefaultTrip(t *testing.T) {
	p := DefaultOpteronParams()
	p.NoiseAmpC = 0
	p.DVFSEnabled = true
	p.DVFSAuto = true // DVFSTripC left 0 → default 55 °C
	c, err := NewCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(c.coreUtil); i++ {
		_ = c.SetCoreUtilization(i, 1)
	}
	var peak float64
	for i := 0; i < 1200; i++ {
		_ = c.Step(250 * time.Millisecond)
		if d, _ := c.DieTempC(0); d > peak {
			peak = d
		}
	}
	if peak > 61 {
		t.Errorf("default trip not respected: peak %.1f °C", peak)
	}
}

func TestFeedbackDisabledByDefault(t *testing.T) {
	// The default parameters reproduce the paper's experimental setup:
	// no fan regulation, no DVFS, so profiles reflect only the workload.
	p := DefaultOpteronParams()
	if p.FanAuto || p.DVFSEnabled || p.DVFSAuto {
		t.Errorf("feedback should default off: %+v", p)
	}
}
