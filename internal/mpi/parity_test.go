package mpi

import (
	"math/rand"
	"testing"
)

// parity_test.go: randomly generated collective programs produce
// bit-identical results run to run.

// randomProgram builds a deterministic sequence of collective ops from a
// seed and executes it, returning each rank's accumulated state.
func randomProgram(seed int64, size int) func(c *Comm) ([]float64, error) {
	return func(c *Comm) ([]float64, error) {
		rng := rand.New(rand.NewSource(seed)) // same schedule on every rank
		state := make([]float64, 8)
		for i := range state {
			state[i] = float64(c.Rank()*8 + i)
		}
		nOps := 4 + rng.Intn(6)
		for op := 0; op < nOps; op++ {
			switch rng.Intn(5) {
			case 0:
				if err := c.Barrier(); err != nil {
					return nil, err
				}
			case 1:
				root := rng.Intn(size)
				buf := append([]float64(nil), state...)
				if err := c.BcastFloat64s(root, buf); err != nil {
					return nil, err
				}
				for i := range state {
					state[i] = (state[i] + buf[i]) / 2
				}
			case 2:
				out := make([]float64, len(state))
				ops := []Op{OpSum, OpMax, OpMin}
				if err := c.Allreduce(ops[rng.Intn(len(ops))], state, out); err != nil {
					return nil, err
				}
				copy(state, out)
				for i := range state {
					state[i] = state[i]/float64(size) + float64(c.Rank())
				}
			case 3:
				blocks := make([]float64, size)
				for i := range blocks {
					blocks[i] = state[i%len(state)] + float64(i)
				}
				out := make([]float64, size)
				if err := c.Alltoall(blocks, out); err != nil {
					return nil, err
				}
				state[0] += out[rng.Intn(size)]
			case 4:
				gathered := make([]float64, size*len(state))
				if err := c.Allgather(state, gathered); err != nil {
					return nil, err
				}
				state[1] = gathered[rng.Intn(len(gathered))]
			}
		}
		return state, nil
	}
}

// TestRandomProgramDeterministicAcrossRuns: the same seed yields identical
// results run-to-run (no scheduling leakage).
func TestRandomProgramDeterministicAcrossRuns(t *testing.T) {
	const size = 4
	prog := randomProgram(99, size)
	run := func() [][]float64 {
		out := make([][]float64, size)
		if err := Run(size, func(c *Comm) error {
			r, err := prog(c)
			out[c.Rank()] = r
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for r := range a {
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("rank %d slot %d differs across runs: %v vs %v", r, i, a[r][i], b[r][i])
			}
		}
	}
}
