package nas

import (
	"fmt"
	"math"
	"time"

	"tempest/internal/cluster"
	"tempest/internal/mpi"
)

// ft.go — the NAS FT benchmark: numerical solution of a 3-D Poisson-type
// PDE with a spectral method. Per iteration the solution is evolved in
// Fourier space and inverse-transformed; the 3-D FFT is distributed as a
// 1-D slab decomposition with an all-to-all transpose between the local
// xy stages and the z stage — the communication phase the paper notes
// occupies ~50 % of FT's runtime (§4.3).
//
// Instrumented function names follow the NPB source: setup,
// compute_indexmap, evolve, cffts1, cffts2, cffts3, transpose, checksum.

// FTParams sizes one FT run.
type FTParams struct {
	// N is the cubic grid edge (power of two, divisible by the rank count).
	N int
	// Iterations is the number of evolve+inverse-FFT steps.
	Iterations int
	// Alpha is the diffusion coefficient of the evolution factor.
	Alpha float64
}

// FTClassParams returns the wired sizes per class.
func FTClassParams(c Class) (FTParams, error) {
	switch c {
	case ClassS:
		return FTParams{N: 32, Iterations: 12, Alpha: 1e-6}, nil
	case ClassW:
		return FTParams{N: 64, Iterations: 8, Alpha: 1e-6}, nil
	case ClassA:
		return FTParams{N: 128, Iterations: 8, Alpha: 1e-6}, nil
	default:
		return FTParams{}, fmt.Errorf("nas: FT class %q not wired", c)
	}
}

// FTResult reports an FT run's outcome.
type FTResult struct {
	// Checksums holds one complex checksum per iteration (as re, im).
	Checksums [][2]float64
	// Verification checks checksum agreement across ranks and finiteness.
	Verification Verification
	// Makespan is this rank's final logical time.
	Makespan time.Duration
}

// RunFT executes the FT benchmark on one rank of a cluster run.
func RunFT(rc *cluster.Rank, class Class) (*FTResult, error) {
	p, err := FTClassParams(class)
	if err != nil {
		return nil, err
	}
	return RunFTParams(rc, p)
}

// RunFTParams executes FT with explicit parameters.
func RunFTParams(rc *cluster.Rank, p FTParams) (*FTResult, error) {
	P := rc.Size()
	if !isPow2(p.N) {
		return nil, fmt.Errorf("nas: FT grid %d must be a power of two", p.N)
	}
	if p.N%P != 0 || p.N < P {
		return nil, fmt.Errorf("nas: FT grid %d not divisible by %d ranks", p.N, P)
	}
	if p.Iterations < 1 {
		return nil, fmt.Errorf("nas: FT needs ≥1 iteration")
	}
	n := p.N
	nzl := n / P // local z planes in slab layout
	nxl := n / P // local x columns in transposed layout

	plan, err := NewFFTPlan(n)
	if err != nil {
		return nil, err
	}

	res := &FTResult{}

	// --- setup: deterministic pseudo-random initial condition ----------
	var u0 *grid3
	rc.Enter("setup")
	if err := rc.Compute(cluster.UtilMemory, opsDuration(float64(n*n*nzl)*12), func() {
		u0 = newGrid3(n, n, nzl)
		seed := uint64(rc.Rank())*2654435761 + 12345
		for i := range u0.data {
			seed = seed*6364136223846793005 + 1442695040888963407
			re := float64(seed>>11) / float64(1<<53)
			seed = seed*6364136223846793005 + 1442695040888963407
			im := float64(seed>>11) / float64(1<<53)
			u0.data[i] = complex(re, im)
		}
	}); err != nil {
		return nil, err
	}
	if err := rc.Exit(); err != nil {
		return nil, err
	}

	// --- compute_indexmap: evolution exponents in transposed layout ----
	// In the transposed layout this rank owns x∈[rank·nxl,(rank+1)·nxl),
	// all y, all z.
	var expFactors []float64
	rc.Enter("compute_indexmap")
	if err := rc.Compute(cluster.UtilCompute, opsDuration(float64(nxl*n*n)*6), func() {
		expFactors = make([]float64, nxl*n*n)
		x0 := rc.Rank() * nxl
		idx := 0
		for z := 0; z < n; z++ {
			kz := wave(z, n)
			for y := 0; y < n; y++ {
				ky := wave(y, n)
				for x := 0; x < nxl; x++ {
					kx := wave(x0+x, n)
					k2 := float64(kx*kx + ky*ky + kz*kz)
					expFactors[idx] = math.Exp(-4 * math.Pi * math.Pi * p.Alpha * k2)
					idx++
				}
			}
		}
	}); err != nil {
		return nil, err
	}
	if err := rc.Exit(); err != nil {
		return nil, err
	}

	if err := rc.Barrier(); err != nil {
		return nil, err
	}

	// --- forward 3-D FFT into uHat (transposed layout) -----------------
	uHat, err := ftForward(rc, plan, u0, P)
	if err != nil {
		return nil, err
	}

	// evolveAccum multiplies uHat by the time-t factors each iteration
	// (NPB applies the factor cumulatively).
	for iter := 1; iter <= p.Iterations; iter++ {
		rc.Enter("evolve")
		if err := rc.Compute(cluster.UtilMemory, opsDuration(float64(len(uHat.data))*4), func() {
			for i := range uHat.data {
				uHat.data[i] *= complex(expFactors[i], 0)
			}
		}); err != nil {
			return nil, err
		}
		if err := rc.Exit(); err != nil {
			return nil, err
		}

		// Inverse transform a working copy back to real space.
		w := newGrid3(uHat.nx, uHat.ny, uHat.nz)
		copy(w.data, uHat.data)
		x, err := ftInverse(rc, plan, w, P)
		if err != nil {
			return nil, err
		}

		// --- checksum: Σ over 1024 strided global samples --------------
		re, im, err := ftChecksum(rc, x, n, nzl)
		if err != nil {
			return nil, err
		}
		res.Checksums = append(res.Checksums, [2]float64{re, im})
	}

	// Verify: checksums finite, and identical on every rank (they are
	// produced by an allreduce, so disagreement means a broken collective).
	ok := true
	detail := ""
	for i, cs := range res.Checksums {
		if math.IsNaN(cs[0]) || math.IsNaN(cs[1]) || math.IsInf(cs[0], 0) || math.IsInf(cs[1], 0) {
			ok = false
			detail = fmt.Sprintf("iteration %d checksum not finite", i+1)
			break
		}
	}
	if ok {
		detail = fmt.Sprintf("%d checksums finite; last = (%.6e, %.6e)",
			len(res.Checksums), res.Checksums[len(res.Checksums)-1][0], res.Checksums[len(res.Checksums)-1][1])
	}
	res.Verification = Verification{Passed: ok, Detail: detail}
	res.Makespan = rc.Now()
	return res, nil
}

// wave maps a grid index to its signed wavenumber.
func wave(i, n int) int {
	if i > n/2 {
		return i - n
	}
	return i
}

// ftForward performs the distributed forward 3-D FFT: local x and y
// transforms on the z-slab, transpose, then z transforms. The returned
// grid is in transposed layout (nx = n/P local columns, full y, full z).
func ftForward(rc *cluster.Rank, plan *FFTPlan, g *grid3, P int) (*grid3, error) {
	rc.Enter("fft")
	lines := func(nLines int) time.Duration { return opsDuration(float64(nLines) * plan.Ops()) }

	if err := instrumentChecked(rc, "cffts1", cluster.UtilCompute, lines(g.ny*g.nz),
		func() error { return g.fftX(plan, +1) }); err != nil {
		_ = rc.Exit()
		return nil, err
	}
	if err := instrumentChecked(rc, "cffts2", cluster.UtilCompute, lines(g.nx*g.nz),
		func() error { return g.fftY(plan, +1) }); err != nil {
		_ = rc.Exit()
		return nil, err
	}

	t, err := ftTranspose(rc, g, P, false)
	if err != nil {
		_ = rc.Exit()
		return nil, err
	}

	if err := instrumentChecked(rc, "cffts3", cluster.UtilCompute, lines(t.nx*t.ny),
		func() error { return t.fftZ(plan, +1) }); err != nil {
		_ = rc.Exit()
		return nil, err
	}
	return t, rc.Exit()
}

// ftInverse reverses the pipeline: inverse z FFTs, transpose back, inverse
// y and x FFTs, and normalisation by n³.
func ftInverse(rc *cluster.Rank, plan *FFTPlan, t *grid3, P int) (*grid3, error) {
	rc.Enter("fft")
	lines := func(nLines int) time.Duration { return opsDuration(float64(nLines) * plan.Ops()) }

	if err := instrumentChecked(rc, "cffts3", cluster.UtilCompute, lines(t.nx*t.ny),
		func() error { return t.fftZ(plan, -1) }); err != nil {
		_ = rc.Exit()
		return nil, err
	}

	g, err := ftTranspose(rc, t, P, true)
	if err != nil {
		_ = rc.Exit()
		return nil, err
	}

	if err := instrumentChecked(rc, "cffts2", cluster.UtilCompute, lines(g.nx*g.nz),
		func() error { return g.fftY(plan, -1) }); err != nil {
		_ = rc.Exit()
		return nil, err
	}
	if err := instrumentChecked(rc, "cffts1", cluster.UtilCompute, lines(g.ny*g.nz),
		func() error { return g.fftX(plan, -1) }); err != nil {
		_ = rc.Exit()
		return nil, err
	}

	n3 := float64(g.nx) * float64(g.ny) * float64(g.nz) * float64(P)
	if err := instrumentChecked(rc, "scale", cluster.UtilMemory, opsDuration(float64(len(g.data))*2),
		func() error { Scale(g.data, n3); return nil }); err != nil {
		_ = rc.Exit()
		return nil, err
	}
	return g, rc.Exit()
}

// ftTranspose redistributes between slab layouts with one all-to-all.
//
// Forward (back=false): input is a z-slab (nx=n, ny=n, nz=n/P); output is
// an x-slab presented as (nx=n/P, ny=n, nz=n). Backward reverses it.
func ftTranspose(rc *cluster.Rank, g *grid3, P int, back bool) (*grid3, error) {
	rc.Enter("transpose")
	var out *grid3
	var err error
	if !back {
		n := g.nx
		nzl := g.nz
		nxl := n / P
		// Pack: destination rank j receives our z-planes restricted to
		// x ∈ [j·nxl, (j+1)·nxl).
		send := make([]float64, 0, 2*n*g.ny*nzl)
		for j := 0; j < P; j++ {
			for z := 0; z < nzl; z++ {
				for y := 0; y < g.ny; y++ {
					for x := j * nxl; x < (j+1)*nxl; x++ {
						v := g.at(x, y, z)
						send = append(send, real(v), imag(v))
					}
				}
			}
		}
		recv := make([]float64, len(send))
		if err = rc.Alltoall(send, recv); err != nil {
			_ = rc.Exit()
			return nil, err
		}
		// Unpack: block i carries source rank i's z-planes (global z =
		// i·nzl + z) of our x-columns.
		out = newGrid3(nxl, g.ny, n)
		bl := len(recv) / P
		idx := 0
		for i := 0; i < P; i++ {
			base := i * bl
			k := base
			for z := 0; z < nzl; z++ {
				gz := i*nzl + z
				for y := 0; y < g.ny; y++ {
					for x := 0; x < nxl; x++ {
						out.set(x, y, gz, complex(recv[k], recv[k+1]))
						k += 2
					}
				}
			}
			idx += bl
		}
		_ = idx
	} else {
		// Input: x-slab (nxl, n, n); output: z-slab (n, n, nzl).
		nxl := g.nx
		n := g.ny
		nzl := n / P
		send := make([]float64, 0, 2*nxl*n*n)
		// Destination rank j receives our x-columns of its z-planes.
		for j := 0; j < P; j++ {
			for z := j * nzl; z < (j+1)*nzl; z++ {
				for y := 0; y < n; y++ {
					for x := 0; x < nxl; x++ {
						v := g.at(x, y, z)
						send = append(send, real(v), imag(v))
					}
				}
			}
		}
		recv := make([]float64, len(send))
		if err = rc.Alltoall(send, recv); err != nil {
			_ = rc.Exit()
			return nil, err
		}
		out = newGrid3(n, n, nzl)
		bl := len(recv) / P
		for i := 0; i < P; i++ {
			k := i * bl
			for z := 0; z < nzl; z++ {
				for y := 0; y < n; y++ {
					for x := i * nxl; x < (i+1)*nxl; x++ {
						out.set(x, y, z, complex(recv[k], recv[k+1]))
						k += 2
					}
				}
			}
		}
	}
	if e := rc.Exit(); e != nil && err == nil {
		err = e
	}
	return out, err
}

// ftChecksum sums 1024 strided global samples of the z-slab grid and
// allreduces the total — NPB FT's per-iteration checksum.
func ftChecksum(rc *cluster.Rank, g *grid3, n, nzl int) (float64, float64, error) {
	rc.Enter("checksum")
	var re, im float64
	if err := rc.Compute(cluster.UtilCompute, opsDuration(1024*6), func() {
		z0 := rc.Rank() * nzl
		for j := 1; j <= 1024; j++ {
			q := (5 * j) % n
			r := (3 * j) % n
			s := j % n
			if s >= z0 && s < z0+nzl {
				v := g.at(q, r, s-z0)
				re += real(v)
				im += imag(v)
			}
		}
	}); err != nil {
		_ = rc.Exit()
		return 0, 0, err
	}
	sum := make([]float64, 2)
	if err := rc.Allreduce(mpi.OpSum, []float64{re, im}, sum); err != nil {
		_ = rc.Exit()
		return 0, 0, err
	}
	if err := rc.Exit(); err != nil {
		return 0, 0, err
	}
	return sum[0], sum[1], nil
}

// FTCost returns the communication cost model scaled to match
// VirtualRate: a 1.8 GHz node slowed to VirtualRate ops/s must see its
// network slowed by the same factor, or communication would vanish from
// profiles whose compute is stretched.
func FTCost() cluster.CostModel {
	const slowdown = 1.0e9 / VirtualRate
	return cluster.CostModel{
		LatencyS:           50e-6 * slowdown,
		BandwidthBytesPerS: 100e6 / slowdown,
		BarrierS:           80e-6 * slowdown,
	}
}
