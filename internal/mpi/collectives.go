package mpi

import (
	"fmt"
	"math"
)

// Op is a reduction operator over float64.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
)

func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	case OpProd:
		return a * b
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", o))
	}
}

// Valid reports whether o is a defined operator.
func (o Op) Valid() bool { return o >= OpSum && o <= OpProd }

// Bcast distributes root's buf to every rank using a binomial tree. Every
// rank passes a buffer of identical length; non-root buffers are
// overwritten in place.
func (c *Comm) Bcast(root int, buf []byte) error {
	if root < 0 || root >= c.size {
		return fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	if c.size == 1 {
		return nil
	}
	// Rotate ranks so the root is virtual rank 0.
	vrank := (c.rank - root + c.size) % c.size
	// Receive from parent (unless root).
	if vrank != 0 {
		// Parent: clear the lowest set bit.
		parent := (vrank & (vrank - 1))
		src := (parent + root) % c.size
		_, _, data, err := c.trecv(src, tagBcast)
		if err != nil {
			return err
		}
		if len(data) != len(buf) {
			return fmt.Errorf("mpi: bcast buffer length %d, message length %d", len(buf), len(data))
		}
		copy(buf, data)
	}
	// Forward to children: vrank + 2^k for increasing k while in range
	// and 2^k > lowest set bit of vrank.
	for mask := 1; mask < c.size; mask <<= 1 {
		if vrank&(mask-1) != 0 {
			break
		}
		child := vrank | mask
		if child == vrank || child >= c.size {
			continue
		}
		dst := (child + root) % c.size
		if err := c.tsend(dst, tagBcast, append([]byte(nil), buf...)); err != nil {
			return err
		}
	}
	return nil
}

// BcastFloat64s broadcasts a float64 slice in place.
func (c *Comm) BcastFloat64s(root int, xs []float64) error {
	buf := Float64sToBytes(xs)
	if err := c.Bcast(root, buf); err != nil {
		return err
	}
	dec, err := BytesToFloat64s(buf)
	if err != nil {
		return err
	}
	copy(xs, dec)
	return nil
}

// Reduce combines every rank's `in` element-wise with op; the result
// arrives in `out` on the root only (out may be nil elsewhere). Reduction
// order is fixed by rank, making results bit-deterministic.
func (c *Comm) Reduce(root int, op Op, in, out []float64) error {
	if root < 0 || root >= c.size {
		return fmt.Errorf("mpi: reduce root %d out of range", root)
	}
	if !op.Valid() {
		return fmt.Errorf("mpi: invalid reduction op %d", op)
	}
	if c.rank != root {
		return c.tsend(root, tagReduce, Float64sToBytes(in))
	}
	if len(out) != len(in) {
		return fmt.Errorf("mpi: reduce out length %d, in length %d", len(out), len(in))
	}
	// Gather contributions per specific rank: deterministic order, and no
	// cross-talk between consecutive reduces.
	parts := make([][]float64, c.size)
	parts[c.rank] = in
	for src := 0; src < c.size; src++ {
		if src == c.rank {
			continue
		}
		_, _, data, err := c.trecv(src, tagReduce)
		if err != nil {
			return err
		}
		xs, err := BytesToFloat64s(data)
		if err != nil {
			return err
		}
		if len(xs) != len(in) {
			return fmt.Errorf("mpi: reduce contribution from rank %d has length %d, want %d", src, len(xs), len(in))
		}
		parts[src] = xs
	}
	copy(out, parts[0])
	for r := 1; r < c.size; r++ {
		for k := range out {
			out[k] = op.apply(out[k], parts[r][k])
		}
	}
	return nil
}

// Allreduce is Reduce to rank 0 followed by Bcast; every rank's out
// receives the combined result.
func (c *Comm) Allreduce(op Op, in, out []float64) error {
	if len(out) != len(in) {
		return fmt.Errorf("mpi: allreduce out length %d, in length %d", len(out), len(in))
	}
	if err := c.Reduce(0, op, in, out); err != nil {
		return err
	}
	return c.BcastFloat64s(0, out)
}

// Gather collects each rank's equal-sized `in` block on the root; out on
// the root must hold size·len(in) elements (nil elsewhere).
func (c *Comm) Gather(root int, in, out []float64) error {
	if root < 0 || root >= c.size {
		return fmt.Errorf("mpi: gather root %d out of range", root)
	}
	if c.rank != root {
		return c.tsend(root, tagGather, Float64sToBytes(in))
	}
	if len(out) != len(in)*c.size {
		return fmt.Errorf("mpi: gather out length %d, want %d", len(out), len(in)*c.size)
	}
	copy(out[c.rank*len(in):], in)
	for src := 0; src < c.size; src++ {
		if src == c.rank {
			continue
		}
		_, _, data, err := c.trecv(src, tagGather)
		if err != nil {
			return err
		}
		xs, err := BytesToFloat64s(data)
		if err != nil {
			return err
		}
		if len(xs) != len(in) {
			return fmt.Errorf("mpi: gather block from rank %d has length %d, want %d", src, len(xs), len(in))
		}
		copy(out[src*len(in):], xs)
	}
	return nil
}

// Allgather is Gather to rank 0 followed by a broadcast of the assembly.
func (c *Comm) Allgather(in, out []float64) error {
	if len(out) != len(in)*c.size {
		return fmt.Errorf("mpi: allgather out length %d, want %d", len(out), len(in)*c.size)
	}
	if err := c.Gather(0, in, out); err != nil {
		return err
	}
	return c.BcastFloat64s(0, out)
}

// Alltoall performs the complete exchange at the heart of NAS FT's
// transpose: rank r's block i lands in rank i's slot r. in and out hold
// size equal blocks each. Implementation: cyclic pairwise send/receive, the
// standard deadlock-free schedule.
func (c *Comm) Alltoall(in, out []float64) error {
	if len(in) != len(out) {
		return fmt.Errorf("mpi: alltoall buffers differ: %d vs %d", len(in), len(out))
	}
	if len(in)%c.size != 0 {
		return fmt.Errorf("mpi: alltoall buffer length %d not divisible by %d ranks", len(in), c.size)
	}
	bl := len(in) / c.size
	// Own block moves locally.
	copy(out[c.rank*bl:(c.rank+1)*bl], in[c.rank*bl:(c.rank+1)*bl])
	for k := 1; k < c.size; k++ {
		to := (c.rank + k) % c.size
		from := (c.rank - k + c.size) % c.size
		sendBlock := Float64sToBytes(in[to*bl : (to+1)*bl])
		errCh := make(chan error, 1)
		go func() { errCh <- c.tsend(to, tagAlltoall, sendBlock) }()
		_, _, data, rerr := c.trecv(from, tagAlltoall)
		if serr := <-errCh; serr != nil {
			return serr
		}
		if rerr != nil {
			return rerr
		}
		xs, err := BytesToFloat64s(data)
		if err != nil {
			return err
		}
		if len(xs) != bl {
			return fmt.Errorf("mpi: alltoall block from rank %d has length %d, want %d", from, len(xs), bl)
		}
		copy(out[from*bl:(from+1)*bl], xs)
	}
	return nil
}
