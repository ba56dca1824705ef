package cluster

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"tempest/internal/mpi"
	"tempest/internal/thermal"
	"tempest/internal/trace"
)

func smallConfig() Config {
	p := thermal.DefaultOpteronParams()
	p.NoiseAmpC = 0
	return Config{Nodes: 2, RanksPerNode: 1, Params: p, Seed: 7}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Nodes: 0, RanksPerNode: 1},
		{Nodes: 1, RanksPerNode: 0},
		{Nodes: 1, RanksPerNode: 99}, // exceeds cores
		{Nodes: 1, RanksPerNode: 1, SampleRateHz: -1},
		{Nodes: 1, RanksPerNode: 1, SampleRateHz: math.NaN()},
		{Nodes: 1, RanksPerNode: 1, SampleRateHz: math.Inf(1)},
		{Nodes: 1, RanksPerNode: 1, SampleRateHz: 1e12}, // interval truncates to 0 ns
		{Nodes: 1, RanksPerNode: 1, Cost: CostModel{LatencyS: -1, BandwidthBytesPerS: 1}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	c, err := New(Config{Nodes: 1, RanksPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.SampleRateHz != 4 || c.cfg.SensorQuantC != 1 {
		t.Errorf("defaults: rate=%v quant=%v", c.cfg.SampleRateHz, c.cfg.SensorQuantC)
	}
	if c.cfg.Cost != DefaultCostModel() {
		t.Errorf("cost model default not applied")
	}
}

func TestSimpleRunProducesTraces(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(func(rc *Rank) error {
		return rc.Instrument("work", UtilBurn, 2*time.Second, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 2 {
		t.Fatalf("traces = %d", len(res.Traces))
	}
	if res.Duration != 2*time.Second {
		t.Errorf("duration = %v", res.Duration)
	}
	if len(res.SensorLabels) != 6 {
		t.Errorf("sensor labels = %v", res.SensorLabels)
	}
	for n, tr := range res.Traces {
		if tr.NodeID != uint32(n) {
			t.Errorf("trace %d node id = %d", n, tr.NodeID)
		}
		var enters, exits, samples int
		for _, e := range tr.Events {
			switch e.Kind {
			case trace.KindEnter:
				enters++
			case trace.KindExit:
				exits++
			case trace.KindSample:
				samples++
			}
		}
		// main + work
		if enters != 2 || exits != 2 {
			t.Errorf("node %d enters/exits = %d/%d", n, enters, exits)
		}
		// 4 Hz over 2 s inclusive: samples at 0,0.25,…,2.0 = 9 instants × 6 sensors.
		if samples != 9*6 {
			t.Errorf("node %d samples = %d, want 54", n, samples)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := smallConfig()
		cfg.Params.NoiseAmpC = 0.3 // seeded noise must still be reproducible
		cfg.Heterogeneous = true
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(func(rc *Rank) error {
			if err := rc.Instrument("phase1", UtilCompute, time.Second, nil); err != nil {
				return err
			}
			if err := rc.Barrier(); err != nil {
				return err
			}
			return rc.Instrument("phase2", UtilBurn, time.Second, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for n := range a.Traces {
		ea, eb := a.Traces[n].Events, b.Traces[n].Events
		if len(ea) != len(eb) {
			t.Fatalf("node %d event counts differ: %d vs %d", n, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("node %d event %d differs: %+v vs %+v", n, i, ea[i], eb[i])
			}
		}
	}
}

func TestBurnHeatsTraceSamples(t *testing.T) {
	cfg := smallConfig()
	cfg.Nodes = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(func(rc *Rank) error {
		return rc.Instrument("foo1", UtilBurn, 60*time.Second, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	// CPU-0 die sensor is node0/temp1 → sorted registry order: sensor ids
	// follow name sort; find it via the announcement marker.
	var first, last float64
	seen := false
	for _, e := range res.Traces[0].Events {
		if e.Kind == trace.KindSample && e.SensorID == 0 {
			if !seen {
				first = e.ValueC
				seen = true
			}
			last = e.ValueC
		}
	}
	if !seen {
		t.Fatal("no samples for sensor 0")
	}
	firstF, lastF := thermal.CToF(first), thermal.CToF(last)
	if lastF-firstF < 20 {
		t.Errorf("die heated %v → %v °F; want ≥20 °F rise over 60 s burn", firstF, lastF)
	}
	if lastF < 117 || lastF > 131 {
		t.Errorf("final die temp %v °F, want ≈124 °F (paper Fig 2)", lastF)
	}
}

func TestClockSynchronisationAcrossBarrier(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	after := make([]time.Duration, 2)
	_, err = c.Run(func(rc *Rank) error {
		// Rank 0 computes 1 s, rank 1 computes 3 s; after the barrier both
		// clocks must agree at ≥3 s.
		d := time.Duration(1+2*rc.Rank()) * time.Second
		if err := rc.Compute(UtilCompute, d, nil); err != nil {
			return err
		}
		if err := rc.Barrier(); err != nil {
			return err
		}
		after[rc.Rank()] = rc.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != after[1] {
		t.Errorf("clocks diverge after barrier: %v vs %v", after[0], after[1])
	}
	if after[0] < 3*time.Second {
		t.Errorf("barrier exit %v earlier than slowest rank", after[0])
	}
}

func TestSendRecvPropagatesClock(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var recvTime time.Duration
	_, err = c.Run(func(rc *Rank) error {
		if rc.Rank() == 0 {
			if err := rc.Compute(UtilCompute, 5*time.Second, nil); err != nil {
				return err
			}
			return rc.Send(1, 1, []float64{42})
		}
		data, err := rc.Recv(0, 1)
		if err != nil {
			return err
		}
		if len(data) != 1 || data[0] != 42 {
			return fmt.Errorf("payload %v", data)
		}
		recvTime = rc.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver idled at 0 but cannot complete before sender's 5 s.
	if recvTime < 5*time.Second {
		t.Errorf("recv completed at %v, before the sender sent", recvTime)
	}
}

func TestCommRunsCool(t *testing.T) {
	// A workload that only communicates must stay much cooler than one
	// that burns — the FT expectation in §4.3.
	runMax := func(util float64) float64 {
		cfg := smallConfig()
		cfg.Nodes = 1
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(func(rc *Rank) error {
			return rc.Compute(util, 60*time.Second, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		maxV := -1e9
		for _, e := range res.Traces[0].Events {
			if e.Kind == trace.KindSample && e.SensorID == 0 && e.ValueC > maxV {
				maxV = e.ValueC
			}
		}
		return maxV
	}
	hot := runMax(UtilBurn)
	cool := runMax(UtilComm)
	if hot-cool < 8 {
		t.Errorf("burn %v °C vs comm %v °C: communication should run much cooler", hot, cool)
	}
}

func TestHeterogeneousNodesDiffer(t *testing.T) {
	cfg := smallConfig()
	cfg.Nodes = 4
	cfg.Heterogeneous = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(func(rc *Rank) error {
		return rc.Compute(UtilBurn, 30*time.Second, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	finals := make([]float64, 4)
	for n, tr := range res.Traces {
		for _, e := range tr.Events {
			if e.Kind == trace.KindSample && e.SensorID == 0 {
				finals[n] = e.ValueC
			}
		}
	}
	lo, hi := finals[0], finals[0]
	for _, v := range finals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 1 {
		t.Errorf("heterogeneous nodes ended within %v °C of each other: %v", hi-lo, finals)
	}
}

func TestWorkloadErrorPropagates(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err = c.Run(func(rc *Rank) error {
		if rc.Rank() == 1 {
			return boom
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestUnbalancedEnterFails(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(func(rc *Rank) error {
		rc.Enter("leaky")
		return nil // never exits
	})
	if err == nil || !strings.Contains(err.Error(), "unclosed") {
		t.Errorf("err = %v", err)
	}
}

func TestExitWithoutEnterFails(t *testing.T) {
	c, _ := New(smallConfig())
	_, err := c.Run(func(rc *Rank) error {
		return rc.Exit()
	})
	if err == nil {
		t.Error("Exit without Enter should fail")
	}
}

func TestComputeValidation(t *testing.T) {
	c, _ := New(smallConfig())
	_, err := c.Run(func(rc *Rank) error {
		if err := rc.Compute(2.0, time.Second, nil); err == nil {
			return errors.New("util 2.0 accepted")
		}
		if err := rc.Compute(0.5, -time.Second, nil); err == nil {
			return errors.New("negative duration accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankGeometry(t *testing.T) {
	cfg := smallConfig()
	cfg.Nodes = 2
	cfg.RanksPerNode = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type geo struct{ node, core int }
	got := make([]geo, 4)
	_, err = c.Run(func(rc *Rank) error {
		got[rc.Rank()] = geo{rc.node, rc.local}
		if rc.Size() != 4 {
			return fmt.Errorf("size %d", rc.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []geo{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rank %d geometry %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCollectivesCarryData(t *testing.T) {
	cfg := smallConfig()
	cfg.Nodes = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(func(rc *Rank) error {
		// Allreduce
		sum := make([]float64, 1)
		if err := rc.Allreduce(mpi.OpSum, []float64{1}, sum); err != nil {
			return err
		}
		if sum[0] != 4 {
			return fmt.Errorf("allreduce got %v", sum[0])
		}
		// Allgather
		ag := make([]float64, 4)
		if err := rc.Allgather([]float64{float64(rc.Rank() * 11)}, ag); err != nil {
			return err
		}
		for r := 0; r < 4; r++ {
			if ag[r] != float64(r*11) {
				return fmt.Errorf("allgather got %v", ag)
			}
		}
		// Alltoall
		in := make([]float64, 4)
		for d := range in {
			in[d] = float64(rc.Rank()*10 + d)
		}
		out := make([]float64, 4)
		if err := rc.Alltoall(in, out); err != nil {
			return err
		}
		for s := 0; s < 4; s++ {
			if out[s] != float64(s*10+rc.Rank()) {
				return fmt.Errorf("alltoall got %v", out)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMPIOpsAppearInTrace(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(func(rc *Rank) error {
		if err := rc.Compute(UtilCompute, time.Second, nil); err != nil {
			return err
		}
		return rc.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range res.Traces[0].Events {
		if e.Kind == trace.KindEnter {
			if name, _ := res.Traces[0].Sym.Name(e.FuncID); name == "MPI_Barrier" {
				found = true
			}
		}
	}
	if !found {
		t.Error("MPI_Barrier not recorded as a traced function")
	}
}

func TestSegmentsContiguous(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var segs []Segment
	_, err = c.Run(func(rc *Rank) error {
		if rc.Rank() != 0 {
			return rc.Barrier()
		}
		if err := rc.Compute(UtilCompute, time.Second, nil); err != nil {
			return err
		}
		if err := rc.Barrier(); err != nil {
			return err
		}
		if err := rc.Compute(UtilBurn, time.Second, nil); err != nil {
			return err
		}
		segs = rc.Segments()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("segments = %d", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Start != segs[i-1].End {
			t.Errorf("gap between segment %d and %d: %v → %v", i-1, i, segs[i-1].End, segs[i].Start)
		}
	}
}

func TestMarkerRecorded(t *testing.T) {
	cfg := smallConfig()
	cfg.Nodes = 1
	c, _ := New(cfg)
	res, err := c.Run(func(rc *Rank) error {
		_ = rc.Compute(UtilCompute, time.Second, nil)
		rc.Marker("sync_point")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range res.Traces[0].Events {
		if e.Kind == trace.KindMarker {
			if name, _ := res.Traces[0].Sym.Name(e.FuncID); name == "sync_point" {
				if e.TS != time.Second {
					t.Errorf("marker at %v", e.TS)
				}
				found = true
			}
		}
	}
	if !found {
		t.Error("marker missing")
	}
}

func BenchmarkClusterRun4Nodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Config{Nodes: 4, RanksPerNode: 1, Seed: 1}
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(func(rc *Rank) error {
			for k := 0; k < 5; k++ {
				if err := rc.Compute(UtilCompute, time.Second, nil); err != nil {
					return err
				}
				if err := rc.Barrier(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMultiRankPerNodeThermalAggregation(t *testing.T) {
	// Two ranks burning on the same node inject power into (up to) two
	// cores; the node must run hotter than with a single burning rank —
	// the post-pass aggregates per-core utilisation correctly.
	peak := func(ranksPerNode int) float64 {
		cfg := smallConfig()
		cfg.Nodes = 1
		cfg.RanksPerNode = ranksPerNode
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(func(rc *Rank) error {
			return rc.Compute(UtilBurn, 40*time.Second, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		var maxV float64
		for _, e := range res.Traces[0].Events {
			if e.Kind == trace.KindSample && e.SensorID == 0 && e.ValueC > maxV {
				maxV = e.ValueC
			}
		}
		return maxV
	}
	one := peak(1)
	two := peak(2)
	four := peak(4)
	if !(two > one+2) {
		t.Errorf("second core added no heat: %v vs %v °C", two, one)
	}
	// Cores 2,3 live on socket 1; sensor 0 is socket 0's die, which heats
	// further only via board coupling — a smaller but nonnegative effect.
	if four < two {
		t.Errorf("four cores cooler than two: %v vs %v °C", four, two)
	}
}

func TestLanesSeparateRanksOnNode(t *testing.T) {
	// Two ranks on one node trace into separate lanes of one trace.
	cfg := smallConfig()
	cfg.Nodes = 1
	cfg.RanksPerNode = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(func(rc *Rank) error {
		return rc.Instrument(fmt.Sprintf("work_r%d", rc.Rank()), UtilCompute, time.Second, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	lanes := map[uint32]bool{}
	for _, e := range res.Traces[0].Events {
		if e.Kind == trace.KindEnter {
			lanes[e.Lane] = true
		}
	}
	if len(lanes) != 2 {
		t.Errorf("enter events on %d lanes, want 2", len(lanes))
	}
}
