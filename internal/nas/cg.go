package nas

import (
	"fmt"
	"math"
	"time"

	"tempest/internal/cluster"
	"tempest/internal/mpi"
)

// cg.go — the NAS CG benchmark: conjugate-gradient solution of a sparse
// symmetric positive-definite system. Rows are partitioned across ranks;
// every iteration needs the full search vector (an allgather) and two
// global dot products (allreduces) — the irregular-communication profile
// class CG represents in the suite. Function names follow NPB: makea,
// conj_grad, with the inner matvec and dots visible as sub-functions.

// CGParams sizes one CG run.
type CGParams struct {
	// N is the matrix dimension (divisible by the rank count).
	N int
	// Iterations is the CG step count.
	Iterations int
	// Band is the half-bandwidth of off-diagonal coupling.
	Band int
}

// CGClassParams returns the wired sizes per class.
func CGClassParams(c Class) (CGParams, error) {
	switch c {
	case ClassS:
		return CGParams{N: 1024, Iterations: 15, Band: 6}, nil
	case ClassW:
		return CGParams{N: 4096, Iterations: 25, Band: 8}, nil
	case ClassA:
		return CGParams{N: 16384, Iterations: 25, Band: 10}, nil
	default:
		return CGParams{}, fmt.Errorf("nas: CG class %q not wired", c)
	}
}

// CGResult reports a CG run's outcome.
type CGResult struct {
	// Residuals holds ‖r‖₂ after each iteration.
	Residuals []float64
	// Zeta is NPB CG's reported eigenvalue-style figure: shift + 1/(xᵀb).
	Zeta         float64
	Verification Verification
	Makespan     time.Duration
}

// cgMatrix is the rank-local row block of the deterministic banded SPD
// matrix: A[i][i] = diag, A[i][j] = coup/(1+|i−j|) for 0<|i−j|≤band.
type cgMatrix struct {
	n, band    int
	rowLo      int // first global row owned
	rows       int
	diag, coup float64
}

// apply computes y = A·x for the local rows given the full vector x.
func (m *cgMatrix) apply(x, y []float64) {
	for li := 0; li < m.rows; li++ {
		i := m.rowLo + li
		s := m.diag * x[i]
		for d := 1; d <= m.band; d++ {
			c := m.coup / float64(1+d)
			if i-d >= 0 {
				s += c * x[i-d]
			}
			if i+d < m.n {
				s += c * x[i+d]
			}
		}
		y[li] = s
	}
}

// RunCGParams executes CG with explicit parameters.
func RunCGParams(rc *cluster.Rank, p CGParams) (*CGResult, error) {
	P := rc.Size()
	if p.N < P || p.N%P != 0 {
		return nil, fmt.Errorf("nas: CG dimension %d not divisible by %d ranks", p.N, P)
	}
	if p.Iterations < 2 {
		return nil, fmt.Errorf("nas: CG needs ≥2 iterations")
	}
	if p.Band < 1 || p.Band >= p.N/2 {
		return nil, fmt.Errorf("nas: CG band %d invalid for dimension %d", p.Band, p.N)
	}
	rows := p.N / P
	rowLo := rc.Rank() * rows

	var m *cgMatrix
	if err := instrumentChecked(rc, "makea", cluster.UtilMemory,
		opsDuration(float64(rows*p.Band)*8), func() error {
			// Diagonal dominance: diag > 2·Σ|coup/(1+d)| guarantees SPD.
			coup := -1.0
			var offSum float64
			for d := 1; d <= p.Band; d++ {
				offSum += math.Abs(coup) / float64(1+d)
			}
			m = &cgMatrix{n: p.N, band: p.Band, rowLo: rowLo, rows: rows,
				diag: 2*offSum + 1.5, coup: coup}
			return nil
		}); err != nil {
		return nil, err
	}

	res := &CGResult{}
	rc.Enter("conj_grad")

	// b = 1 (NPB uses a unit-ish RHS), x = 0, r = b, rho = rᵀr.
	x := make([]float64, rows)
	r := make([]float64, rows)
	pLoc := make([]float64, rows)
	for i := range r {
		r[i] = 1
		pLoc[i] = 1
	}
	dot := func(a, b []float64) (float64, error) {
		var local float64
		if err := instrumentChecked(rc, "cg_dot", cluster.UtilCompute,
			opsDuration(float64(rows)*2), func() error {
				for i := range a {
					local += a[i] * b[i]
				}
				return nil
			}); err != nil {
			return 0, err
		}
		out := make([]float64, 1)
		if err := rc.Allreduce(mpi.OpSum, []float64{local}, out); err != nil {
			return 0, err
		}
		return out[0], nil
	}

	rho, err := dot(r, r)
	if err != nil {
		_ = rc.Exit()
		return nil, err
	}
	full := make([]float64, p.N)
	q := make([]float64, rows)

	for iter := 0; iter < p.Iterations; iter++ {
		// Gather the full search vector, then the local sparse matvec.
		if err := rc.Allgather(pLoc, full); err != nil {
			_ = rc.Exit()
			return nil, err
		}
		if err := instrumentChecked(rc, "cg_matvec", cluster.UtilCompute,
			opsDuration(float64(rows*(2*p.Band+1))*2), func() error {
				m.apply(full, q)
				return nil
			}); err != nil {
			_ = rc.Exit()
			return nil, err
		}
		pq, err := dot(pLoc, q)
		if err != nil {
			_ = rc.Exit()
			return nil, err
		}
		if pq == 0 {
			break
		}
		alpha := rho / pq
		if err := instrumentChecked(rc, "cg_update", cluster.UtilMemory,
			opsDuration(float64(rows)*4), func() error {
				for i := range x {
					x[i] += alpha * pLoc[i]
					r[i] -= alpha * q[i]
				}
				return nil
			}); err != nil {
			_ = rc.Exit()
			return nil, err
		}
		rhoNew, err := dot(r, r)
		if err != nil {
			_ = rc.Exit()
			return nil, err
		}
		res.Residuals = append(res.Residuals, math.Sqrt(rhoNew))
		beta := rhoNew / rho
		rho = rhoNew
		for i := range pLoc {
			pLoc[i] = r[i] + beta*pLoc[i]
		}
	}
	if err := rc.Exit(); err != nil {
		return nil, err
	}

	// Zeta-style figure: 1/(xᵀ·1) plus a fixed shift.
	var localSum float64
	for _, v := range x {
		localSum += v
	}
	out := make([]float64, 1)
	if err := rc.Allreduce(mpi.OpSum, []float64{localSum}, out); err != nil {
		return nil, err
	}
	if out[0] != 0 {
		res.Zeta = 10 + 1/out[0]
	}

	if len(res.Residuals) == 0 {
		return nil, fmt.Errorf("nas: CG made no progress")
	}
	first, last := res.Residuals[0], res.Residuals[len(res.Residuals)-1]
	ok := last < first*0.5 && !math.IsNaN(last)
	res.Verification = Verification{
		Passed: ok,
		Detail: fmt.Sprintf("residual %0.3e → %0.3e, zeta %.6f", first, last, res.Zeta),
	}
	res.Makespan = rc.Now()
	return res, nil
}
