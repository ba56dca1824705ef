package mpi

import (
	"errors"
	"fmt"
	"testing"
)

func TestSplitEvenOdd(t *testing.T) {
	// Six ranks split into even/odd colour groups; each sub-communicator
	// runs its own allreduce without cross-talk.
	const size = 6
	err := Run(size, func(c *Comm) error {
		color := c.Rank() % 2
		sub, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		if sub == nil {
			return errors.New("unexpected null communicator")
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d, want 3", sub.Size())
		}
		// Ranks ordered by key (= parent rank here): parent 0,2,4 → sub
		// ranks 0,1,2 for the even group.
		wantRank := c.Rank() / 2
		if sub.Rank() != wantRank {
			return fmt.Errorf("parent %d got sub rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		if sub.ctx == c.ctx {
			return errors.New("sub communicator reused parent context")
		}
		// Group-local reduction: evens sum 0+2+4=6, odds 1+3+5=9.
		out := make([]float64, 1)
		if err := sub.Allreduce(OpSum, []float64{float64(c.Rank())}, out); err != nil {
			return err
		}
		want := 6.0
		if color == 1 {
			want = 9
		}
		if out[0] != want {
			return fmt.Errorf("colour %d sum %v, want %v", color, out[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	// Keys reverse the rank order within the group.
	const size = 4
	err := Run(size, func(c *Comm) error {
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		want := size - 1 - c.Rank()
		if sub.Rank() != want {
			return fmt.Errorf("parent %d sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNegativeColorIsNull(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		color := 0
		if c.Rank() == 2 {
			color = -1
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			if sub != nil {
				return errors.New("negative colour should yield nil")
			}
			return nil
		}
		if sub == nil || sub.Size() != 2 {
			return fmt.Errorf("group wrong: %+v", sub)
		}
		return sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitIsolatesTraffic(t *testing.T) {
	// A point-to-point message on the sub-communicator must not satisfy a
	// receive on the parent, even with identical (rank, tag).
	err := Run(2, func(c *Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Send tag 5 on the sub-communicator, then tag 5 on the parent
			// with a different payload.
			if err := sub.Send(1, 5, []byte("sub")); err != nil {
				return err
			}
			return c.Send(1, 5, []byte("parent"))
		}
		// Receive on the parent FIRST: it must get "parent", skipping the
		// earlier sub-context message.
		_, _, data, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(data) != "parent" {
			return fmt.Errorf("parent recv got %q", data)
		}
		_, _, data, err = sub.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(data) != "sub" {
			return fmt.Errorf("sub recv got %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNested(t *testing.T) {
	// Split a sub-communicator again (row/column pattern of NPB BT/SP).
	const size = 4 // 2×2 grid
	err := Run(size, func(c *Comm) error {
		row := c.Rank() / 2
		rowComm, err := c.Split(row, c.Rank())
		if err != nil {
			return err
		}
		col := c.Rank() % 2
		colComm, err := c.Split(col, c.Rank())
		if err != nil {
			return err
		}
		if rowComm.Size() != 2 || colComm.Size() != 2 {
			return fmt.Errorf("grid sizes %d×%d", rowComm.Size(), colComm.Size())
		}
		if rowComm.ctx == colComm.ctx {
			return errors.New("row and column communicators share a context")
		}
		// Row sum then column sum over the row results computes the grand
		// total on every rank.
		rowSum := make([]float64, 1)
		if err := rowComm.Allreduce(OpSum, []float64{float64(c.Rank())}, rowSum); err != nil {
			return err
		}
		total := make([]float64, 1)
		if err := colComm.Allreduce(OpSum, rowSum, total); err != nil {
			return err
		}
		if total[0] != 0+1+2+3 {
			return fmt.Errorf("grand total %v", total[0])
		}
		// Nested split of the row communicator still works.
		sub2, err := rowComm.Split(0, rowComm.Rank())
		if err != nil {
			return err
		}
		return sub2.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
