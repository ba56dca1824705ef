package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Params describes the thermal build of one cluster node (one server).
// Defaults model the paper's testbed: dual-processor, dual-core 1.8 GHz
// AMD Opteron boxes with constant high fan speed and DVFS disabled (§4.1).
type Params struct {
	Sockets        int     // CPU packages
	CoresPerSocket int     // cores per package
	FreqHz         float64 // nominal core frequency

	// Per-core power envelope, watts.
	IdleWPerCore float64
	MaxWPerCore  float64
	// UncoreWPerSocket is socket power independent of core activity
	// (caches, memory controller).
	UncoreWPerSocket float64
	// MoboW is constant chipset/board power warming the motherboard
	// sensor location.
	MoboW float64

	AmbientC float64 // machine-room air temperature

	// RC lumps. Each socket gets a die and a heatsink; the board gets a
	// single motherboard lump. All sinks and the board couple to ambient.
	DieCapJPerK     float64
	DieToSinkKPerW  float64
	SinkCapJPerK    float64
	SinkToAmbKPerW  float64 // at reference fan speed
	SinkToMoboKPerW float64 // weak coupling warming the board sensor
	MoboCapJPerK    float64
	MoboToAmbKPerW  float64

	// Fan. Experiments run with a constant high speed (paper: ~3000 RPM)
	// and regulation disabled.
	FanRefRPM float64 // speed at which SinkToAmbKPerW is specified
	FanRPM    float64 // operating speed
	FanAuto   bool    // temperature-controlled regulation (off in paper)
	// FanExponent shapes how resistance falls with speed:
	// R = R_ref · (ref/rpm)^FanExponent.
	FanExponent float64

	// DVFS ladder as frequency fractions of FreqHz, highest first. The
	// paper disables DVFS; Enabled=false pins level 0 (full speed).
	DVFSFractions []float64
	DVFSEnabled   bool
	// DVFSAuto engages a thermal governor: when any die exceeds
	// DVFSTripC the ladder steps down; when all dies fall below
	// DVFSTripC − 5 °C it steps back up. The paper disables exactly this
	// kind of feedback so profiles reflect the application (§4.1).
	DVFSAuto  bool
	DVFSTripC float64

	// Ambient noise: an Ornstein–Uhlenbeck perturbation of room air,
	// giving nodes the "volatile behaviour around an average" the paper
	// sees on FT nodes 1–2. Zero amplitude disables it.
	NoiseAmpC float64
	NoiseTauS float64
	Seed      int64
}

// DefaultOpteronParams returns parameters tuned so that an idle node reads
// ≈94 °F at the CPU sensor and a single-core CPU burn saturates ≈124 °F —
// the span of the paper's Figure 2.
func DefaultOpteronParams() Params {
	return Params{
		Sockets:          2,
		CoresPerSocket:   2,
		FreqHz:           1.8e9,
		IdleWPerCore:     4,
		MaxWPerCore:      42,
		UncoreWPerSocket: 8,
		MoboW:            18,
		AmbientC:         26.0,
		DieCapJPerK:      40,
		DieToSinkKPerW:   0.23,
		SinkCapJPerK:     50,
		SinkToAmbKPerW:   0.25,
		SinkToMoboKPerW:  9.0,
		MoboCapJPerK:     900,
		MoboToAmbKPerW:   0.55,
		FanRefRPM:        3000,
		FanRPM:           3000,
		FanAuto:          false,
		FanExponent:      0.8,
		DVFSFractions:    []float64{1.0, 0.9, 0.8, 0.67},
		DVFSEnabled:      false,
		NoiseAmpC:        0.25,
		NoiseTauS:        8,
		Seed:             1,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.Sockets < 1:
		return fmt.Errorf("thermal: Sockets = %d, need ≥1", p.Sockets)
	case p.CoresPerSocket < 1:
		return fmt.Errorf("thermal: CoresPerSocket = %d, need ≥1", p.CoresPerSocket)
	case p.FreqHz <= 0:
		return fmt.Errorf("thermal: FreqHz = %v, need >0", p.FreqHz)
	case p.IdleWPerCore < 0 || p.MaxWPerCore < p.IdleWPerCore:
		return fmt.Errorf("thermal: core power envelope [%v,%v] invalid", p.IdleWPerCore, p.MaxWPerCore)
	case p.DieCapJPerK <= 0 || p.SinkCapJPerK <= 0 || p.MoboCapJPerK <= 0:
		return fmt.Errorf("thermal: capacitances must be positive")
	case p.DieToSinkKPerW <= 0 || p.SinkToAmbKPerW <= 0 || p.SinkToMoboKPerW <= 0 || p.MoboToAmbKPerW <= 0:
		return fmt.Errorf("thermal: resistances must be positive")
	case p.FanRefRPM <= 0 || p.FanRPM <= 0:
		return fmt.Errorf("thermal: fan speeds must be positive")
	case len(p.DVFSFractions) == 0:
		return fmt.Errorf("thermal: need at least one DVFS level")
	}
	for i, f := range p.DVFSFractions {
		if f <= 0 || f > 1 {
			return fmt.Errorf("thermal: DVFS fraction %d = %v outside (0,1]", i, f)
		}
	}
	return nil
}

// NumCores returns total core count.
func (p Params) NumCores() int { return p.Sockets * p.CoresPerSocket }

// Perturb returns a copy of p with deterministic node-to-node variation:
// resistances ±12 %, capacitances ±8 %, ambient ±1.2 °C, noise amplitude
// scaled ±50 %. This is how "node 3 runs hotter" arises without scripting:
// a node that drew a high sink resistance genuinely dissipates worse.
func Perturb(p Params, nodeID int, seed int64) Params {
	rng := rand.New(rand.NewSource(seed + int64(nodeID)*7919))
	j := func(v, frac float64) float64 { return v * (1 + (rng.Float64()*2-1)*frac) }
	p.DieToSinkKPerW = j(p.DieToSinkKPerW, 0.12)
	p.SinkToAmbKPerW = j(p.SinkToAmbKPerW, 0.12)
	p.MoboToAmbKPerW = j(p.MoboToAmbKPerW, 0.12)
	p.DieCapJPerK = j(p.DieCapJPerK, 0.08)
	p.SinkCapJPerK = j(p.SinkCapJPerK, 0.08)
	p.AmbientC += (rng.Float64()*2 - 1) * 1.2
	p.NoiseAmpC = j(p.NoiseAmpC, 0.5)
	p.Seed = seed + int64(nodeID)*104729
	return p
}

// CPU is the live thermal model of one node: the RC network plus fan,
// DVFS and core-activity state. Not safe for concurrent use.
type CPU struct {
	p   Params
	net *Network

	ambIdx       int
	moboIdx      int
	dieIdx       []int // per socket
	sinkIdx      []int // per socket
	sinkAmbEdge  []int // per socket, edge index of the fan-cooled path
	baseSinkAmbR float64

	coreUtil  []float64 // per core, 0..1
	dvfsLevel int
	noise     *OUProcess
}

// NewCPU builds the node model and settles it at its idle steady state, so
// profiles start from realistic warm-idle temperatures rather than ambient.
func NewCPU(p Params) (*CPU, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var nodes []Node
	var edges []Edge
	amb := len(nodes)
	nodes = append(nodes, Node{Name: "ambient", InitialC: p.AmbientC})
	mobo := len(nodes)
	nodes = append(nodes, Node{Name: "mobo", CapacitanceJPerK: p.MoboCapJPerK, InitialC: p.AmbientC})
	edges = append(edges, Edge{A: mobo, B: amb, ResistKPerW: p.MoboToAmbKPerW})

	c := &CPU{p: p, ambIdx: amb, moboIdx: mobo, baseSinkAmbR: p.SinkToAmbKPerW}
	for s := 0; s < p.Sockets; s++ {
		die := len(nodes)
		nodes = append(nodes, Node{Name: fmt.Sprintf("die%d", s), CapacitanceJPerK: p.DieCapJPerK, InitialC: p.AmbientC})
		sink := len(nodes)
		nodes = append(nodes, Node{Name: fmt.Sprintf("sink%d", s), CapacitanceJPerK: p.SinkCapJPerK, InitialC: p.AmbientC})
		edges = append(edges, Edge{A: die, B: sink, ResistKPerW: p.DieToSinkKPerW})
		c.sinkAmbEdge = append(c.sinkAmbEdge, len(edges))
		edges = append(edges, Edge{A: sink, B: amb, ResistKPerW: p.SinkToAmbKPerW})
		edges = append(edges, Edge{A: sink, B: mobo, ResistKPerW: p.SinkToMoboKPerW})
		c.dieIdx = append(c.dieIdx, die)
		c.sinkIdx = append(c.sinkIdx, sink)
	}
	net, err := NewNetwork(nodes, edges)
	if err != nil {
		return nil, err
	}
	c.net = net
	c.coreUtil = make([]float64, p.NumCores())
	if p.NoiseAmpC > 0 {
		c.noise = NewOUProcess(p.NoiseAmpC, p.NoiseTauS, p.Seed)
	}
	c.applyFan()
	c.applyPower()
	// Settle at idle equilibrium.
	ss := net.SteadyState()
	for i := range ss {
		if !nodes[i].Boundary() {
			net.temps[i] = ss[i]
		}
	}
	return c, nil
}

// SetCoreUtilization sets core's activity in [0,1]; 0 is idle, 1 is a full
// CPU burn. Out-of-range core or utilisation is an error.
func (c *CPU) SetCoreUtilization(core int, u float64) error {
	if core < 0 || core >= len(c.coreUtil) {
		return fmt.Errorf("thermal: core %d out of range [0,%d)", core, len(c.coreUtil))
	}
	if u < 0 || u > 1 {
		return fmt.Errorf("thermal: utilization %v outside [0,1]", u)
	}
	c.coreUtil[core] = u
	c.applyPower()
	return nil
}

// DVFSFreqFactor returns the current frequency fraction (1.0 when DVFS is
// disabled, per the paper's experimental setup).
func (c *CPU) DVFSFreqFactor() float64 {
	if !c.p.DVFSEnabled {
		return c.p.DVFSFractions[0]
	}
	return c.p.DVFSFractions[c.dvfsLevel]
}

// applyFan maps fan speed to the sink→ambient resistance:
// R = R_ref · (ref/rpm)^exp, clamped to [R_ref/4, 4·R_ref].
func (c *CPU) applyFan() {
	r := c.baseSinkAmbR * math.Pow(c.p.FanRefRPM/c.p.FanRPM, c.p.FanExponent)
	if r < c.baseSinkAmbR/4 {
		r = c.baseSinkAmbR / 4
	}
	if r > c.baseSinkAmbR*4 {
		r = c.baseSinkAmbR * 4
	}
	for _, e := range c.sinkAmbEdge {
		// Resistances validated positive; ignore impossible error.
		_ = c.net.SetEdgeResistance(e, r)
	}
}

// corePowerW returns the electrical power of one core at utilisation u,
// scaled by the cubic DVFS law P ∝ f·V² with V ∝ f.
func (c *CPU) corePowerW(u float64) float64 {
	f := c.DVFSFreqFactor()
	return (c.p.IdleWPerCore + u*(c.p.MaxWPerCore-c.p.IdleWPerCore)) * f * f * f
}

// applyPower folds per-core utilisation into per-die injected power.
func (c *CPU) applyPower() {
	for s := 0; s < c.p.Sockets; s++ {
		w := c.p.UncoreWPerSocket
		for k := 0; k < c.p.CoresPerSocket; k++ {
			w += c.corePowerW(c.coreUtil[s*c.p.CoresPerSocket+k])
		}
		_ = c.net.SetPower(c.dieIdx[s], w)
	}
	_ = c.net.SetPower(c.moboIdx, c.p.MoboW)
}

// autoFan implements temperature-feedback regulation (disabled in the
// paper's runs): speed rises linearly from ref/2 at 45 °C die to 1.5·ref
// at 70 °C.
func (c *CPU) autoFan() {
	hottest := math.Inf(-1)
	for _, d := range c.dieIdx {
		if t := c.net.Temperature(d); t > hottest {
			hottest = t
		}
	}
	frac := (hottest - 45) / 25
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	c.p.FanRPM = c.p.FanRefRPM * (0.5 + frac)
	c.applyFan()
}

// autoDVFS implements the thermal trip governor.
func (c *CPU) autoDVFS() {
	trip := c.p.DVFSTripC
	if trip == 0 {
		trip = 55
	}
	hottest := math.Inf(-1)
	for _, d := range c.dieIdx {
		if t := c.net.Temperature(d); t > hottest {
			hottest = t
		}
	}
	switch {
	case hottest > trip && c.dvfsLevel < len(c.p.DVFSFractions)-1:
		c.dvfsLevel++
		c.applyPower()
	case hottest < trip-5 && c.dvfsLevel > 0:
		c.dvfsLevel--
		c.applyPower()
	}
}

// Step advances the node's thermal state by dt.
func (c *CPU) Step(dt time.Duration) error {
	if c.p.FanAuto {
		c.autoFan()
	}
	if c.p.DVFSEnabled && c.p.DVFSAuto {
		c.autoDVFS()
	}
	if c.noise != nil {
		offset := c.noise.Step(dt.Seconds())
		if err := c.net.SetBoundary(c.ambIdx, c.p.AmbientC+offset); err != nil {
			return err
		}
	}
	return c.net.Step(dt)
}

// DieTempC returns socket s's die temperature in °C — the CPU core sensor
// location.
func (c *CPU) DieTempC(s int) (float64, error) {
	if s < 0 || s >= len(c.dieIdx) {
		return 0, fmt.Errorf("thermal: socket %d out of range [0,%d)", s, len(c.dieIdx))
	}
	return c.net.Temperature(c.dieIdx[s]), nil
}

// SinkTempC returns socket s's heatsink temperature in °C.
func (c *CPU) SinkTempC(s int) (float64, error) {
	if s < 0 || s >= len(c.sinkIdx) {
		return 0, fmt.Errorf("thermal: socket %d out of range [0,%d)", s, len(c.sinkIdx))
	}
	return c.net.Temperature(c.sinkIdx[s]), nil
}

// MoboTempC returns the motherboard sensor location temperature in °C.
func (c *CPU) MoboTempC() float64 { return c.net.Temperature(c.moboIdx) }

// AmbientTempC returns the (possibly noise-perturbed) room air temperature.
func (c *CPU) AmbientTempC() float64 { return c.net.Temperature(c.ambIdx) }

// ExhaustTempC estimates the chassis exhaust-air temperature: ambient
// plus a fraction of the mean heatsink excess (air picks up heat crossing
// the sinks). G5 chassis expose this as a seventh sensor.
func (c *CPU) ExhaustTempC() float64 {
	amb := c.AmbientTempC()
	var sum float64
	for s := range c.sinkIdx {
		t, _ := c.SinkTempC(s)
		sum += t - amb
	}
	return amb + 0.45*sum/float64(len(c.sinkIdx))
}

// Sockets returns the socket count.
func (c *CPU) Sockets() int { return c.p.Sockets }
