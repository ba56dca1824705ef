package cluster

import (
	"time"

	"tempest/internal/mpi"
)

// subcomm.go exposes MPI_Comm_split to workloads with the same
// logical-clock bookkeeping the Rank's world collectives get: a
// sub-communicator collective synchronises the clocks of its *members
// only* — ranks outside the group keep computing, exactly the partial
// synchronisation NPB's multi-partition codes (and CG's 2-D processor
// grid) rely on.

// SubComm is a communicator over a subset of ranks, bound to this rank's
// logical clock and trace lane.
type SubComm struct {
	rc   *Rank
	comm *mpi.Comm
}

// Split partitions the world (collective across all ranks; see
// mpi.Comm.Split). A negative colour returns nil.
func (rc *Rank) Split(color, key int) (*SubComm, error) {
	sub, err := rc.comm.Split(color, key)
	if err != nil {
		return nil, err
	}
	// The split itself is a world-collective synchronisation point.
	t, err := rc.syncClocks()
	if err != nil {
		return nil, err
	}
	rc.commWindow("MPI_Comm_split", t+time.Duration(rc.cost.BarrierS*float64(time.Second)))
	if sub == nil {
		return nil, nil
	}
	return &SubComm{rc: rc, comm: sub}, nil
}

// Size returns the sub-communicator's member count.
func (sc *SubComm) Size() int { return sc.comm.Size() }

// syncSub agrees on the max logical time across the group only.
func (sc *SubComm) syncSub() (time.Duration, error) {
	in := []float64{float64(sc.rc.now)}
	out := make([]float64, 1)
	if err := sc.comm.Allreduce(mpi.OpMax, in, out); err != nil {
		return 0, err
	}
	return time.Duration(out[0]), nil
}

// groupCost models a dissemination collective within the group.
func (sc *SubComm) groupCost(bytes int) time.Duration {
	p := sc.Size()
	s := sc.rc.cost.BarrierS + float64(p-1)*sc.rc.cost.LatencyS + float64(bytes)/sc.rc.cost.BandwidthBytesPerS
	return time.Duration(s * float64(time.Second))
}

// Allreduce combines in element-wise across the group into out.
func (sc *SubComm) Allreduce(op mpi.Op, in, out []float64) error {
	if err := sc.comm.Allreduce(op, in, out); err != nil {
		return err
	}
	t, err := sc.syncSub()
	if err != nil {
		return err
	}
	sc.rc.commWindow("MPI_Allreduce", t+sc.groupCost(8*len(in)))
	return nil
}
