package mpi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBcastFromEachRoot(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8} {
		for root := 0; root < size; root++ {
			err := Run(size, func(c *Comm) error {
				buf := make([]byte, 16)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = byte(root*10 + i)
					}
				}
				if err := c.Bcast(root, buf); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != byte(root*10+i) {
						return fmt.Errorf("rank %d byte %d = %d", c.Rank(), i, buf[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("size %d root %d: %v", size, root, err)
			}
		}
	}
}

func TestBcastErrors(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if err := c.Bcast(5, nil); err == nil {
			return errors.New("bad root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastFloat64s(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		xs := make([]float64, 3)
		if c.Rank() == 2 {
			xs[0], xs[1], xs[2] = 1.5, -2.5, 3.5
		}
		if err := c.BcastFloat64s(2, xs); err != nil {
			return err
		}
		if xs[0] != 1.5 || xs[1] != -2.5 || xs[2] != 3.5 {
			return fmt.Errorf("rank %d got %v", c.Rank(), xs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	const size = 4
	err := Run(size, func(c *Comm) error {
		in := []float64{float64(c.Rank()), 1}
		var out []float64
		if c.Rank() == 0 {
			out = make([]float64, 2)
		}
		if err := c.Reduce(0, OpSum, in, out); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if out[0] != 0+1+2+3 || out[1] != size {
				return fmt.Errorf("reduce = %v", out)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceOps(t *testing.T) {
	cases := []struct {
		op   Op
		want float64 // over inputs 1,2,3,4
	}{
		{OpSum, 10}, {OpMax, 4}, {OpMin, 1}, {OpProd, 24},
	}
	for _, cse := range cases {
		err := Run(4, func(c *Comm) error {
			in := []float64{float64(c.Rank() + 1)}
			out := make([]float64, 1)
			if err := c.Allreduce(cse.op, in, out); err != nil {
				return err
			}
			if out[0] != cse.want {
				return fmt.Errorf("op %d = %v, want %v", cse.op, out[0], cse.want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestReduceErrors(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		in := []float64{1}
		if c.Rank() == 0 {
			if err := c.Reduce(9, OpSum, in, in); err == nil {
				return errors.New("bad root accepted")
			}
			if err := c.Reduce(0, Op(42), in, in); err == nil {
				return errors.New("bad op accepted")
			}
			bad := make([]float64, 5)
			if err := c.Reduce(0, OpSum, in, bad); err == nil {
				return errors.New("mismatched out accepted")
			}
			// Drain the two contributions rank 1 sent for the two
			// successful sends below? Rank 1 only sends for its own
			// Reduce calls; use one matching reduce to stay in sync.
			out := make([]float64, 1)
			return c.Reduce(0, OpSum, in, out)
		}
		return c.Reduce(0, OpSum, in, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceEveryRankSeesResult(t *testing.T) {
	const size = 5
	err := Run(size, func(c *Comm) error {
		in := []float64{float64(c.Rank())}
		out := make([]float64, 1)
		if err := c.Allreduce(OpMax, in, out); err != nil {
			return err
		}
		if out[0] != size-1 {
			return fmt.Errorf("rank %d allreduce max = %v", c.Rank(), out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherAndAllgather(t *testing.T) {
	const size = 4
	err := Run(size, func(c *Comm) error {
		in := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
		out := make([]float64, 2*size)
		if err := c.Allgather(in, out); err != nil {
			return err
		}
		for r := 0; r < size; r++ {
			if out[2*r] != float64(r) || out[2*r+1] != float64(r*10) {
				return fmt.Errorf("rank %d block %d = %v", c.Rank(), r, out[2*r:2*r+2])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherErrors(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		in := []float64{1}
		if c.Rank() == 0 {
			if err := c.Gather(7, in, nil); err == nil {
				return errors.New("bad root accepted")
			}
			if err := c.Gather(0, in, make([]float64, 3)); err == nil {
				return errors.New("bad out length accepted")
			}
			out := make([]float64, 2)
			return c.Gather(0, in, out)
		}
		return c.Gather(0, in, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallTransposesBlocks(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 8} {
		const bl = 3
		err := Run(size, func(c *Comm) error {
			in := make([]float64, size*bl)
			for dest := 0; dest < size; dest++ {
				for k := 0; k < bl; k++ {
					// Value encodes (sender, dest, k).
					in[dest*bl+k] = float64(c.Rank()*10000 + dest*100 + k)
				}
			}
			out := make([]float64, size*bl)
			if err := c.Alltoall(in, out); err != nil {
				return err
			}
			for src := 0; src < size; src++ {
				for k := 0; k < bl; k++ {
					want := float64(src*10000 + c.Rank()*100 + k)
					if out[src*bl+k] != want {
						return fmt.Errorf("rank %d slot (%d,%d) = %v, want %v", c.Rank(), src, k, out[src*bl+k], want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestAlltoallErrors(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if err := c.Alltoall(make([]float64, 3), make([]float64, 4)); err == nil {
			return errors.New("mismatched buffers accepted")
		}
		if err := c.Alltoall(make([]float64, 3), make([]float64, 3)); err == nil {
			return errors.New("non-divisible buffer accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: Allreduce(Sum) over random vectors equals the serial sum,
// bit-for-bit, regardless of scheduling (deterministic rank-order fold).
func TestAllreduceDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size, n = 4, 8
		inputs := make([][]float64, size)
		for r := range inputs {
			inputs[r] = make([]float64, n)
			for k := range inputs[r] {
				inputs[r][k] = rng.NormFloat64()
			}
		}
		want := make([]float64, n)
		copy(want, inputs[0])
		for r := 1; r < size; r++ {
			for k := range want {
				want[k] += inputs[r][k]
			}
		}
		for trial := 0; trial < 3; trial++ {
			results := make([][]float64, size)
			err := Run(size, func(c *Comm) error {
				out := make([]float64, n)
				if err := c.Allreduce(OpSum, inputs[c.Rank()], out); err != nil {
					return err
				}
				results[c.Rank()] = out
				return nil
			})
			if err != nil {
				return false
			}
			for r := 0; r < size; r++ {
				for k := 0; k < n; k++ {
					if results[r][k] != want[k] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: Alltoall is an involution for symmetric data — applying it
// twice returns the original buffer.
func TestAlltoallInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size, bl = 4, 5
		orig := make([][]float64, size)
		for r := range orig {
			orig[r] = make([]float64, size*bl)
			for k := range orig[r] {
				orig[r][k] = rng.Float64()
			}
		}
		final := make([][]float64, size)
		err := Run(size, func(c *Comm) error {
			mid := make([]float64, size*bl)
			if err := c.Alltoall(orig[c.Rank()], mid); err != nil {
				return err
			}
			back := make([]float64, size*bl)
			if err := c.Alltoall(mid, back); err != nil {
				return err
			}
			final[c.Rank()] = back
			return nil
		})
		if err != nil {
			return false
		}
		for r := range orig {
			for k := range orig[r] {
				if final[r][k] != orig[r][k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCollectivesSizeOne(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		buf := []byte{1, 2}
		if err := c.Bcast(0, buf); err != nil {
			return err
		}
		in := []float64{3}
		out := make([]float64, 1)
		if err := c.Allreduce(OpSum, in, out); err != nil {
			return err
		}
		if out[0] != 3 {
			return fmt.Errorf("allreduce(1) = %v", out)
		}
		ag := make([]float64, 1)
		if err := c.Allgather(in, ag); err != nil {
			return err
		}
		if err := c.Alltoall(in, out); err != nil {
			return err
		}
		if out[0] != 3 {
			return fmt.Errorf("alltoall(1) = %v", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceNaNPropagation(t *testing.T) {
	// Sum with a NaN input must surface NaN, not hide it.
	err := Run(2, func(c *Comm) error {
		in := []float64{0}
		if c.Rank() == 1 {
			in[0] = math.NaN()
		}
		out := make([]float64, 1)
		if err := c.Allreduce(OpSum, in, out); err != nil {
			return err
		}
		if !math.IsNaN(out[0]) {
			return fmt.Errorf("NaN lost: %v", out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
