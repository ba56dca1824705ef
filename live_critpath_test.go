package tempest

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLiveSessionCritPath drives the streaming critical-path analyzer
// beside a real session: one lane "computes" while another sits in an
// MPI-named wait, so the snapshot must attribute wait to the op and see
// both lanes.
func TestLiveSessionCritPath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "none")
	s, err := NewLiveSession(LiveConfig{
		HwmonRoot:             missing,
		AllowSimulatedSensors: true,
		SampleRateHz:          50,
		LaneBufferCap:         DefaultLaneBufferCap,
		DrainInterval:         20 * time.Millisecond,
		CritPath:              true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = s.Instrument("crunch", func() { time.Sleep(120 * time.Millisecond) })
	}()
	go func() {
		defer wg.Done()
		_ = s.Instrument("MPI_Barrier", func() { time.Sleep(120 * time.Millisecond) })
	}()
	wg.Wait()

	sum := s.CritPathSummary()
	if sum == nil {
		t.Fatal("CritPathSummary nil with CritPath enabled")
	}
	if len(sum.Lanes) < 2 {
		t.Fatalf("lanes = %d, want >= 2", len(sum.Lanes))
	}
	op, ok := sum.Op("MPI_Barrier")
	if !ok || op.TotalWaitS <= 0 {
		t.Errorf("MPI_Barrier op = %+v ok=%v, want positive wait", op, ok)
	}
	if sum.StackAnomalies != 0 {
		t.Errorf("stack anomalies on a live-session stream: %d", sum.StackAnomalies)
	}
	// Non-destructive: a second snapshot still works and moves forward.
	again := s.CritPathSummary()
	if again == nil || again.DurationS < sum.DurationS {
		t.Errorf("second snapshot regressed: %v -> %v", sum.DurationS, again.DurationS)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveSessionCritPathDisabled(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "none")
	s, err := NewLiveSession(LiveConfig{
		HwmonRoot:             missing,
		AllowSimulatedSensors: true,
		SampleRateHz:          50,
		LaneBufferCap:         DefaultLaneBufferCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum := s.CritPathSummary(); sum != nil {
		t.Errorf("CritPathSummary = %+v without CritPath, want nil", sum)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveSessionCritPathStopsAtBuilderError: an exit on an empty stack
// is recorded and poisons the session's builder. The analyzer takes
// exactly the events the builder took, so it counts no anomaly, and
// Close reports the builder's error.
func TestLiveSessionCritPathStopsAtBuilderError(t *testing.T) {
	s, err := NewLiveSession(LiveConfig{
		HwmonRoot:             filepath.Join(t.TempDir(), "none"),
		AllowSimulatedSensors: true,
		SampleRateHz:          50,
		LaneBufferCap:         DefaultLaneBufferCap,
		CritPath:              true,
	})
	if err != nil {
		t.Fatal(err)
	}
	lane := s.Lane()
	_ = lane.Instrument("before", func() {})
	_ = lane.Exit(s.tracer.SymTab().Register("orphan"))
	_ = lane.Instrument("after", func() {})
	sum := s.CritPathSummary()
	if took := s.fold.Builder.Events(); sum.Events != took || sum.StackAnomalies != 0 {
		t.Errorf("analyzer saw %d events and %d stack anomalies, builder took %d: want the same events, no anomaly", sum.Events, sum.StackAnomalies, took)
	}
	if _, err := s.Close(); err == nil || !strings.Contains(err.Error(), "empty stack") {
		t.Errorf("Close = %v, want the builder's empty-stack error", err)
	}
}
