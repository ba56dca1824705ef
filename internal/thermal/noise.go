package thermal

import "math"
import "math/rand"

// OUProcess is a seeded Ornstein–Uhlenbeck process used to perturb ambient
// temperature: mean-reverting toward zero with relaxation time tau and
// stationary standard deviation amp. It gives sensor traces the bounded,
// correlated jitter real machine-room air shows, without ever drifting
// unboundedly the way a plain random walk would.
type OUProcess struct {
	amp float64
	tau float64
	x   float64
	rng *rand.Rand
}

// NewOUProcess returns a process with stationary std-dev amp and
// relaxation time tau seconds. Non-positive tau is clamped to 1 s.
func NewOUProcess(amp, tau float64, seed int64) *OUProcess {
	if tau <= 0 {
		tau = 1
	}
	return &OUProcess{amp: amp, tau: tau, rng: rand.New(rand.NewSource(seed))}
}

// Step advances the process by dt seconds and returns the new value.
// Exact discretisation: x' = x·e^(−dt/τ) + amp·√(1−e^(−2dt/τ))·N(0,1).
func (o *OUProcess) Step(dt float64) float64 {
	if dt <= 0 {
		return o.x
	}
	decay := math.Exp(-dt / o.tau)
	o.x = o.x*decay + o.amp*math.Sqrt(1-decay*decay)*o.rng.NormFloat64()
	return o.x
}
