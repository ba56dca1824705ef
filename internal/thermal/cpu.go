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
	// and regulation disabled; the model has no fan governor.
	FanRefRPM float64 // speed at which SinkToAmbKPerW is specified
	FanRPM    float64 // operating speed
	// FanExponent shapes how resistance falls with speed:
	// R = R_ref · (ref/rpm)^FanExponent.
	FanExponent float64

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
		FanExponent:      0.8,
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

// CPU is the live thermal model of one node: the RC network plus fan
// and core-activity state. Cores always run at full frequency: the
// paper disables DVFS (§4.1). Not safe for concurrent use.
type CPU struct {
	p   Params
	net *Network

	ambIdx       int
	moboIdx      int
	dieIdx       []int // per socket
	sinkIdx      []int // per socket
	sinkAmbEdge  []int // per socket, edge index of the fan-cooled path
	baseSinkAmbR float64

	coreUtil []float64 // per core, 0..1
	noise    *OUProcess
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

// corePowerW returns the electrical power of one core at utilisation u.
func (c *CPU) corePowerW(u float64) float64 {
	return c.p.IdleWPerCore + u*(c.p.MaxWPerCore-c.p.IdleWPerCore)
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

// Step advances the node's thermal state by dt.
func (c *CPU) Step(dt time.Duration) error {
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

// Sockets returns the socket count.
func (c *CPU) Sockets() int { return c.p.Sockets }
