// Package cluster is the simulated testbed Tempest profiles against: N
// server nodes, each with its own RC thermal model and sensor set, running
// an MPI workload whose ranks execute real Go code under a virtual-time
// cost model.
//
// The paper's testbed is a four-node dual-processor dual-core Opteron
// cluster (§4.1); this package substitutes it (see DESIGN.md) with a
// conservative parallel discrete-event scheme:
//
//   - every rank runs on its own goroutine and exchanges real messages
//     through internal/mpi, so causality and blocking structure are those
//     of a genuine MPI program;
//   - each rank carries a logical clock advanced by a LogP-style cost
//     model (compute seconds declared by the workload, message cost
//     α + bytes/β); receives and collectives propagate clock values, so
//     a rank's logical time is always consistent with everything it has
//     observed — the standard conservative-simulation invariant;
//   - function entries/exits are recorded into per-node traces at logical
//     timestamps, one trace lane per rank, exactly the per-node trace
//     files Tempest's parser consumes;
//   - after the workload completes, a thermal post-pass replays each
//     node's per-core utilisation timeline through its RC model, sampling
//     quantised sensors at the tempd rate (4 Hz) into the same trace.
//
// Determinism: same seed, same workload → byte-identical traces.
package cluster

import (
	"fmt"
	"time"

	"tempest/internal/mpi"
	"tempest/internal/thermal"
	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// CostModel maps workload declarations to virtual durations.
type CostModel struct {
	// LatencyS is the per-message latency α in seconds.
	LatencyS float64
	// BandwidthBytesPerS is the link bandwidth β.
	BandwidthBytesPerS float64
	// BarrierS is the base cost of a barrier/synchronisation round.
	BarrierS float64
}

// DefaultCostModel resembles gigabit-Ethernet-era cluster interconnect:
// 50 µs latency, ~100 MB/s effective bandwidth.
func DefaultCostModel() CostModel {
	return CostModel{LatencyS: 50e-6, BandwidthBytesPerS: 100e6, BarrierS: 80e-6}
}

// Validate checks the model.
func (m CostModel) Validate() error {
	if m.LatencyS < 0 || m.BandwidthBytesPerS <= 0 || m.BarrierS < 0 {
		return fmt.Errorf("cluster: invalid cost model %+v", m)
	}
	return nil
}

// msgCost returns the virtual duration of moving n bytes point-to-point.
func (m CostModel) msgCost(n int) time.Duration {
	s := m.LatencyS + float64(n)/m.BandwidthBytesPerS
	return time.Duration(s * float64(time.Second))
}

// Utilisation levels for activity classes; the thermal model maps these to
// power. Communication runs cool (§4.3: FT "spends 50% of its time in
// all-to-all communication" and was expected to run cool).
const (
	UtilIdle    = 0.0
	UtilComm    = 0.12
	UtilMemory  = 0.55
	UtilCompute = 0.85
	UtilBurn    = 1.0
)

// Config describes the simulated cluster.
type Config struct {
	// Nodes is the number of servers.
	Nodes int
	// RanksPerNode is how many MPI ranks each node hosts; must not exceed
	// the node's core count. Rank r lives on node r/RanksPerNode, core
	// r%RanksPerNode (the paper binds processes to cores, §3.3).
	RanksPerNode int
	// Params is the base thermal build; each node gets a deterministic
	// perturbation of it (node-to-node variance, §4.3).
	Params thermal.Params
	// Heterogeneous enables per-node parameter perturbation; when false
	// all nodes are thermally identical.
	Heterogeneous bool
	// Seed drives all stochastic elements (perturbation, ambient noise).
	Seed int64
	// Cost is the communication cost model; zero value → DefaultCostModel.
	Cost CostModel
	// SampleRateHz is the tempd sampling rate; 0 → 4 Hz.
	SampleRateHz float64
	// SensorQuantC is the sensor reporting step in °C; 0 → 1 °C,
	// negative → no quantisation.
	SensorQuantC float64
}

// Cluster is a constructed simulated testbed. Build one per run.
type Cluster struct {
	cfg     Config
	params  []thermal.Params // per node
	tracers []*trace.Tracer  // per node
	lanes   [][]*trace.Lane  // [node][localRank]
	world   *mpi.World
	ranks   []*Rank
}

// New validates the configuration and assembles the cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: Nodes = %d, need ≥1", cfg.Nodes)
	}
	if cfg.RanksPerNode < 1 {
		return nil, fmt.Errorf("cluster: RanksPerNode = %d, need ≥1", cfg.RanksPerNode)
	}
	if cfg.Params.Sockets == 0 {
		cfg.Params = thermal.DefaultOpteronParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.RanksPerNode > cfg.Params.NumCores() {
		return nil, fmt.Errorf("cluster: %d ranks per node exceed %d cores", cfg.RanksPerNode, cfg.Params.NumCores())
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	if err := cfg.Cost.Validate(); err != nil {
		return nil, err
	}
	// Above 1 GHz the sampling interval truncates to 0 ns.
	if !(cfg.SampleRateHz >= 0 && cfg.SampleRateHz <= 1e9) {
		return nil, fmt.Errorf("cluster: sample rate %v Hz outside [0, 1e9]", cfg.SampleRateHz)
	}
	if cfg.SampleRateHz == 0 {
		cfg.SampleRateHz = 4
	}
	if cfg.SensorQuantC == 0 {
		cfg.SensorQuantC = 1
	}

	c := &Cluster{cfg: cfg}
	for n := 0; n < cfg.Nodes; n++ {
		p := cfg.Params
		if cfg.Heterogeneous {
			p = thermal.Perturb(p, n, cfg.Seed)
		} else {
			p.Seed = cfg.Seed + int64(n)*104729
		}
		c.params = append(c.params, p)
		tr, err := trace.NewTracer(trace.Config{
			Clock:         vclock.NewVirtualClock(), // unused: explicit timestamps
			NodeID:        uint32(n),
			LaneBufferCap: 1 << 22,
		})
		if err != nil {
			return nil, err
		}
		c.tracers = append(c.tracers, tr)
		lanes := make([]*trace.Lane, cfg.RanksPerNode)
		for r := range lanes {
			lanes[r] = tr.NewLane()
		}
		c.lanes = append(c.lanes, lanes)
	}

	size := cfg.Nodes * cfg.RanksPerNode
	w, err := mpi.NewWorld(size)
	if err != nil {
		return nil, err
	}
	c.world = w
	for g := 0; g < size; g++ {
		comm, err := w.Comm(g)
		if err != nil {
			return nil, err
		}
		node := g / cfg.RanksPerNode
		local := g % cfg.RanksPerNode
		c.ranks = append(c.ranks, &Rank{
			comm:  comm,
			cost:  cfg.Cost,
			node:  node,
			local: local,
			lane:  c.lanes[node][local],
			sym:   c.tracers[node],
			est:   newThermalEstimator(c.params[node]),
		})
	}
	return c, nil
}

// Result is everything a completed run hands to the parser.
type Result struct {
	// Traces holds one per-node trace, samples merged, index = node id.
	Traces []*trace.Trace
	// Duration is the workload's virtual makespan.
	Duration time.Duration
	// SensorLabels, indexed like the per-node sensor ids, name the
	// sensors every node exposes (all nodes share a layout).
	SensorLabels []string
}

// Run executes body once per rank and performs the thermal post-pass. The
// cluster must not be reused after Run.
func (c *Cluster) Run(body func(rc *Rank) error) (*Result, error) {
	defer c.world.Close()
	err := c.world.Run(func(comm *mpi.Comm) error {
		rc := c.ranks[comm.Rank()]
		rc.enterRoot()
		if err := body(rc); err != nil {
			return err
		}
		return rc.exitRoot()
	})
	if err != nil {
		return nil, err
	}
	var makespan time.Duration
	for _, rc := range c.ranks {
		if rc.now > makespan {
			makespan = rc.now
		}
	}
	labels, err := c.thermalPostPass(makespan)
	if err != nil {
		return nil, err
	}
	res := &Result{Duration: makespan, SensorLabels: labels}
	for _, tr := range c.tracers {
		res.Traces = append(res.Traces, tr.Finish())
	}
	return res, nil
}
