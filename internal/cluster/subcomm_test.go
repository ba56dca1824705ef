package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tempest/internal/mpi"
)

func TestSplitGroupCollectives(t *testing.T) {
	cfg := smallConfig()
	cfg.Nodes = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(func(rc *Rank) error {
		sub, err := rc.Split(rc.Rank()%2, rc.Rank())
		if err != nil {
			return err
		}
		if sub == nil || sub.Size() != 2 {
			return errors.New("group shape wrong")
		}
		out := make([]float64, 1)
		if err := sub.Allreduce(mpi.OpSum, []float64{float64(rc.Rank())}, out); err != nil {
			return err
		}
		want := 2.0 // evens: 0+2
		if rc.Rank()%2 == 1 {
			want = 4 // odds: 1+3
		}
		if out[0] != want {
			return fmt.Errorf("group sum %v, want %v", out[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubCommPartialSynchronisation(t *testing.T) {
	// A group collective synchronises only the group: the even group's
	// members meet at the max of *their* clocks, unaffected by a slow
	// odd rank.
	cfg := smallConfig()
	cfg.Nodes = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := make([]time.Duration, 4)
	_, err = c.Run(func(rc *Rank) error {
		sub, err := rc.Split(rc.Rank()%2, rc.Rank())
		if err != nil {
			return err
		}
		// Rank 3 (odd group) computes far longer than anyone else.
		d := time.Second
		if rc.Rank() == 3 {
			d = 30 * time.Second
		}
		if err := rc.Compute(UtilCompute, d, nil); err != nil {
			return err
		}
		if err := sub.Allreduce(mpi.OpSum, []float64{1}, make([]float64, 1)); err != nil {
			return err
		}
		after[rc.Rank()] = rc.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Even group (0,2) must exit around 1 s — far before rank 3's 30 s.
	for _, r := range []int{0, 2} {
		if after[r] > 5*time.Second {
			t.Errorf("even rank %d dragged to %v by the odd group", r, after[r])
		}
	}
	// Odd group (1,3) meets at ≥30 s.
	for _, r := range []int{1, 3} {
		if after[r] < 30*time.Second {
			t.Errorf("odd rank %d exited at %v, before its slow partner", r, after[r])
		}
	}
}

func TestSplitNullMember(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(func(rc *Rank) error {
		color := 0
		if rc.Rank() == 1 {
			color = -1
		}
		sub, err := rc.Split(color, 0)
		if err != nil {
			return err
		}
		if rc.Rank() == 1 && sub != nil {
			return errors.New("negative colour should yield nil")
		}
		if rc.Rank() == 0 && (sub == nil || sub.Size() != 1) {
			return errors.New("singleton group wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
