package nas

import (
	"math"
	"math/cmplx"
	"testing"
	"time"

	"tempest/internal/cluster"
	"tempest/internal/mpi"
	"tempest/internal/parser"
	"tempest/internal/trace"
)

func newFTCluster(t testing.TB, nodes int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Nodes:         nodes,
		RanksPerNode:  1,
		Seed:          11,
		Cost:          FTCost(),
		Heterogeneous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFTClassParams(t *testing.T) {
	for _, c := range []Class{ClassS, ClassW, ClassA} {
		p, err := FTClassParams(c)
		if err != nil {
			t.Fatal(err)
		}
		if !isPow2(p.N) || p.Iterations < 1 {
			t.Errorf("class %v params %+v", c, p)
		}
	}
	if _, err := FTClassParams(Class('Z')); err == nil {
		t.Error("class Z should fail")
	}
}

func TestParseClass(t *testing.T) {
	for _, s := range []string{"S", "s", "W", "w", "A"} {
		if _, err := ParseClass(s); err != nil {
			t.Errorf("%q: %v", s, err)
		}
	}
	for _, s := range []string{"", "C", "SS", "x"} {
		if _, err := ParseClass(s); err == nil {
			t.Errorf("%q should fail", s)
		}
	}
	if ClassS.String() != "S" {
		t.Error("String wrong")
	}
}

func TestDistributedFFTRoundTrip(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		c := newFTCluster(t, nodes)
		errs := make([]float64, nodes)
		_, err := c.Run(func(rc *cluster.Rank) error {
			e, err := ftRoundTripError(rc, 16)
			errs[rc.Rank()] = e
			return err
		})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		for r, e := range errs {
			if e > 1e-9 {
				t.Errorf("nodes=%d rank %d round-trip error %v", nodes, r, e)
			}
		}
	}
}

func TestRunFTClassS(t *testing.T) {
	c := newFTCluster(t, 4)
	results := make([]*FTResult, 4)
	_, err := c.Run(func(rc *cluster.Rank) error {
		r, err := RunFT(rc, ClassS)
		results[rc.Rank()] = r
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, r := range results {
		if !r.Verification.Passed {
			t.Errorf("rank %d verification failed: %s", rank, r.Verification.Detail)
		}
		if len(r.Checksums) != 12 {
			t.Errorf("rank %d checksums = %d", rank, len(r.Checksums))
		}
	}
	// Checksums agree bit-for-bit across ranks (allreduce product).
	for rank := 1; rank < 4; rank++ {
		for i := range results[0].Checksums {
			if results[rank].Checksums[i] != results[0].Checksums[i] {
				t.Errorf("rank %d checksum %d differs", rank, i)
			}
		}
	}
	// Checksums evolve across iterations (the evolution factor acts).
	if results[0].Checksums[0] == results[0].Checksums[len(results[0].Checksums)-1] {
		t.Error("checksums did not evolve")
	}
}

func TestFTInvalidConfigs(t *testing.T) {
	c := newFTCluster(t, 4)
	_, err := c.Run(func(rc *cluster.Rank) error {
		if _, err := RunFTParams(rc, FTParams{N: 12, Iterations: 1}); err == nil {
			return errMsg("non-power-of-two accepted")
		}
		if _, err := RunFTParams(rc, FTParams{N: 2, Iterations: 1}); err == nil {
			return errMsg("grid smaller than ranks accepted")
		}
		if _, err := RunFTParams(rc, FTParams{N: 32, Iterations: 0}); err == nil {
			return errMsg("zero iterations accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type errMsg string

func (e errMsg) Error() string { return string(e) }

func TestFTProfileShape(t *testing.T) {
	// The paper's Table 2 lists FT's profile; the key structural facts:
	// the program is dominated by fft/transpose, the all-to-all shows up
	// as a major communication phase, and evolve/checksum are visible.
	c := newFTCluster(t, 4)
	res, err := c.Run(func(rc *cluster.Rank) error {
		_, err := RunFT(rc, ClassS)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	np, err := parser.Parse(res.Traces[0], parser.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"main", "fft", "transpose", "MPI_Alltoall", "evolve", "checksum", "cffts1", "cffts2", "cffts3", "setup"} {
		if _, ok := np.Function(fn); !ok {
			t.Errorf("function %s missing from FT profile", fn)
		}
	}
	mainP, _ := np.Function("main")
	fft, _ := np.Function("fft")
	alltoall, _ := np.Function("MPI_Alltoall")
	if fft.TotalTime <= 0 || fft.TotalTime > mainP.TotalTime {
		t.Errorf("fft time %v vs main %v", fft.TotalTime, mainP.TotalTime)
	}
	// Communication is a substantial share (§4.3: ~50 %). Accept 25–75 %.
	share := float64(alltoall.TotalTime) / float64(mainP.TotalTime)
	if share < 0.25 || share > 0.75 {
		t.Errorf("alltoall share = %.2f, want ≈0.5", share)
	}
}

func TestFTDeterministicTraces(t *testing.T) {
	run := func() []trace.Event {
		c := newFTCluster(t, 2)
		res, err := c.Run(func(rc *cluster.Rank) error {
			_, err := RunFTParams(rc, FTParams{N: 16, Iterations: 2, Alpha: 1e-6})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Traces[0].Events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestFTCostScaling(t *testing.T) {
	cost := FTCost()
	if err := cost.Validate(); err != nil {
		t.Fatal(err)
	}
	// The slowdown keeps the latency·bandwidth balance of the original.
	def := cluster.DefaultCostModel()
	ratioL := cost.LatencyS / def.LatencyS
	ratioB := def.BandwidthBytesPerS / cost.BandwidthBytesPerS
	if math.Abs(ratioL-ratioB) > 1e-6*ratioL {
		t.Errorf("asymmetric scaling: latency ×%v, bandwidth ÷%v", ratioL, ratioB)
	}
}

func TestWave(t *testing.T) {
	cases := []struct{ i, n, want int }{
		{0, 8, 0}, {1, 8, 1}, {4, 8, 4}, {5, 8, -3}, {7, 8, -1},
	}
	for _, c := range cases {
		if got := wave(c.i, c.n); got != c.want {
			t.Errorf("wave(%d,%d) = %d, want %d", c.i, c.n, got, c.want)
		}
	}
}

func BenchmarkFTClassS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := newFTCluster(b, 4)
		if _, err := c.Run(func(rc *cluster.Rank) error {
			_, err := RunFT(rc, ClassS)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = time.Second

// ftRoundTripError transforms a grid forward and back on one rank set and
// returns the max absolute error vs the original — the correctness proof
// of the distributed FFT, used by tests.
func ftRoundTripError(rc *cluster.Rank, n int) (float64, error) {
	P := rc.Size()
	plan, err := NewFFTPlan(n)
	if err != nil {
		return 0, err
	}
	nzl := n / P
	g := newGrid3(n, n, nzl)
	seed := uint64(rc.Rank()) + 7
	for i := range g.data {
		seed = seed*6364136223846793005 + 1442695040888963407
		g.data[i] = complex(float64(seed>>11)/float64(1<<53), float64(seed>>40)/float64(1<<24))
	}
	orig := append([]complex128(nil), g.data...)
	t, err := ftForward(rc, plan, g, P)
	if err != nil {
		return 0, err
	}
	back, err := ftInverse(rc, plan, t, P)
	if err != nil {
		return 0, err
	}
	var maxErr float64
	for i := range back.data {
		if d := cmplx.Abs(back.data[i] - orig[i]); d > maxErr {
			maxErr = d
		}
	}
	out := make([]float64, 1)
	if err := rc.Allreduce(mpi.OpMax, []float64{maxErr}, out); err != nil {
		return 0, err
	}
	return out[0], nil
}
