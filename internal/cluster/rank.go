package cluster

import (
	"fmt"
	"sync"
	"time"

	"tempest/internal/mpi"
	"tempest/internal/trace"
)

// Segment is one homogeneous stretch of a rank's activity timeline: from
// Start to End the rank ran at utilisation Util. The thermal post-pass
// folds segments into per-core power.
type Segment struct {
	Start, End time.Duration
	Util       float64
}

// Rank is the execution context a workload body receives: the MPI endpoint
// plus the logical clock, trace lane and activity recorder for one rank.
// All methods must be called from the rank's own goroutine.
type Rank struct {
	comm  *mpi.Comm
	cost  CostModel
	node  int
	local int
	lane  *trace.Lane
	sym   interface {
		RegisterFunc(string) uint32
	}

	now      time.Duration
	stack    []uint32
	names    []string // parallel to stack: open function names
	segMu    sync.Mutex
	segments []Segment
	rootFid  uint32
	throttle map[string]Throttle
	est      *thermalEstimator
}

// Throttle is a per-function what-if transformation for thermal
// optimisation studies (the paper's question 4: "what and where are the
// performance effects of thermal optimizations?"). Compute calls issued
// while the named function is innermost run at Util·UtilScale and take
// Time·TimeScale — the shape of a DVFS step applied to one phase.
type Throttle struct {
	// UtilScale multiplies the declared utilisation (clamped to [0,1]).
	UtilScale float64
	// TimeScale multiplies the declared duration (a slower clock makes
	// the same work take longer).
	TimeScale float64
}

// SetThrottles installs the per-function throttle table; nil clears it.
// Call before issuing work (typically first thing in the workload body).
func (rc *Rank) SetThrottles(t map[string]Throttle) {
	rc.throttle = t
}

// activeThrottle returns the throttle of the innermost open function that
// has one, if any.
func (rc *Rank) activeThrottle() (Throttle, bool) {
	if rc.throttle == nil {
		return Throttle{}, false
	}
	for i := len(rc.names) - 1; i >= 0; i-- {
		if th, ok := rc.throttle[rc.names[i]]; ok {
			return th, true
		}
	}
	return Throttle{}, false
}

// Rank returns the global MPI rank.
func (rc *Rank) Rank() int { return rc.comm.Rank() }

// Size returns the world size.
func (rc *Rank) Size() int { return rc.comm.Size() }

// Now returns the rank's logical time.
func (rc *Rank) Now() time.Duration { return rc.now }

// Segments returns a copy of the activity timeline recorded so far.
func (rc *Rank) Segments() []Segment {
	rc.segMu.Lock()
	defer rc.segMu.Unlock()
	return append([]Segment(nil), rc.segments...)
}

// addSegment extends the activity timeline; zero-length segments are
// dropped.
func (rc *Rank) addSegment(start, end time.Duration, util float64) {
	if end <= start {
		return
	}
	rc.segMu.Lock()
	rc.segments = append(rc.segments, Segment{Start: start, End: end, Util: util})
	rc.segMu.Unlock()
	if rc.est != nil {
		rc.est.advance(util, end-start)
	}
}

// enterRoot opens the implicit "main" frame at t=0.
func (rc *Rank) enterRoot() {
	rc.rootFid = rc.sym.RegisterFunc("main")
	rc.stack = append(rc.stack, rc.rootFid)
	rc.names = append(rc.names, "main")
	// Balanced cross-function by construction: exitRoot closes it.
	rc.lane.EnterAt(rc.rootFid, rc.now) //tempest:ignore enterexit
}

// exitRoot closes the implicit frame.
func (rc *Rank) exitRoot() error {
	if len(rc.stack) != 1 {
		return fmt.Errorf("cluster: rank %d finished with %d unclosed functions", rc.Rank(), len(rc.stack)-1)
	}
	rc.stack = rc.stack[:0]
	return rc.lane.ExitAt(rc.rootFid, rc.now)
}

// Enter opens an instrumented function at the current logical time —
// the -finstrument-functions entry hook.
func (rc *Rank) Enter(name string) {
	fid := rc.sym.RegisterFunc(name)
	rc.stack = append(rc.stack, fid)
	rc.names = append(rc.names, name)
	// Rank.Enter/Exit are themselves the paper's entry/exit hooks; the
	// shadow stack above pairs them across calls.
	rc.lane.EnterAt(fid, rc.now) //tempest:ignore enterexit
}

// Exit closes the innermost open function.
func (rc *Rank) Exit() error {
	if len(rc.stack) <= 1 {
		return fmt.Errorf("cluster: rank %d Exit with no open function", rc.Rank())
	}
	fid := rc.stack[len(rc.stack)-1]
	rc.stack = rc.stack[:len(rc.stack)-1]
	if len(rc.names) > 0 {
		rc.names = rc.names[:len(rc.names)-1]
	}
	return rc.lane.ExitAt(fid, rc.now)
}

// Compute advances logical time by d at utilisation util, optionally
// executing real work fn (its wall-clock cost is irrelevant; the declared
// d is the simulated cost). It is the workload's way of saying "this much
// CPU-bound activity happens here".
func (rc *Rank) Compute(util float64, d time.Duration, fn func()) error {
	if util < 0 || util > 1 {
		return fmt.Errorf("cluster: utilisation %v outside [0,1]", util)
	}
	if d < 0 {
		return fmt.Errorf("cluster: negative compute duration %v", d)
	}
	if fn != nil {
		fn()
	}
	if th, ok := rc.activeThrottle(); ok {
		util *= th.UtilScale
		if util < 0 {
			util = 0
		}
		if util > 1 {
			util = 1
		}
		d = time.Duration(float64(d) * th.TimeScale)
	}
	rc.addSegment(rc.now, rc.now+d, util)
	rc.now += d
	return nil
}

// Instrument wraps fn in Enter/Exit around a Compute — one instrumented
// function occupying d of logical time.
func (rc *Rank) Instrument(name string, util float64, d time.Duration, fn func()) error {
	rc.Enter(name)
	if err := rc.Compute(util, d, fn); err != nil {
		return err
	}
	return rc.Exit()
}

// Marker drops an annotation at the current logical time.
func (rc *Rank) Marker(name string) {
	rc.lane.MarkerAt(name, rc.now)
}

// --- timestamp propagation -------------------------------------------------

// encodeTimed prepends the sender's logical time to a payload.
func encodeTimed(now time.Duration, data []float64) []float64 {
	out := make([]float64, 0, len(data)+1)
	out = append(out, float64(now))
	return append(out, data...)
}

// decodeTimed splits a timed payload.
func decodeTimed(buf []float64) (time.Duration, []float64, error) {
	if len(buf) < 1 {
		return 0, nil, fmt.Errorf("cluster: timed payload too short")
	}
	return time.Duration(buf[0]), buf[1:], nil
}

// commWindow records a communication-utilisation segment covering the
// operation and advances logical time to end.
func (rc *Rank) commWindow(opName string, end time.Duration) {
	if end < rc.now {
		end = rc.now
	}
	fid := rc.sym.RegisterFunc(opName)
	rc.lane.EnterAt(fid, rc.now)
	rc.addSegment(rc.now, end, UtilComm)
	rc.now = end
	_ = rc.lane.ExitAt(fid, rc.now)
}

// Send transmits data with the rank's logical timestamp attached. Sends
// are asynchronous (buffered) and cost the sender one latency.
func (rc *Rank) Send(to, tag int, data []float64) error {
	if err := rc.comm.SendFloat64s(to, tag, encodeTimed(rc.now, data)); err != nil {
		return err
	}
	rc.commWindow("MPI_Send", rc.now+time.Duration(rc.cost.LatencyS*float64(time.Second)))
	return nil
}

// Recv blocks for a message and merges clocks: the receive completes at
// max(local time, sender time + transfer cost).
func (rc *Rank) Recv(from, tag int) ([]float64, error) {
	buf, err := rc.comm.RecvFloat64s(from, tag)
	if err != nil {
		return nil, err
	}
	sent, data, err := decodeTimed(buf)
	if err != nil {
		return nil, err
	}
	arrival := sent + rc.cost.msgCost(8*len(data))
	end := rc.now
	if arrival > end {
		end = arrival
	}
	rc.commWindow("MPI_Recv", end)
	return data, nil
}

// syncClocks agrees on the max logical time across all ranks (the real
// synchronisation a blocking collective performs) and returns it.
func (rc *Rank) syncClocks() (time.Duration, error) {
	in := []float64{float64(rc.now)}
	out := make([]float64, 1)
	if err := rc.comm.Allreduce(mpi.OpMax, in, out); err != nil {
		return 0, err
	}
	return time.Duration(out[0]), nil
}

// Barrier synchronises all ranks; everyone leaves at the same logical time.
func (rc *Rank) Barrier() error {
	t, err := rc.syncClocks()
	if err != nil {
		return err
	}
	rc.commWindow("MPI_Barrier", t+time.Duration(rc.cost.BarrierS*float64(time.Second)))
	return nil
}

// collectiveCost models a dissemination collective moving `bytes` per rank.
func (rc *Rank) collectiveCost(bytes int) time.Duration {
	p := rc.Size()
	s := rc.cost.BarrierS + float64(p-1)*rc.cost.LatencyS + float64(bytes)/rc.cost.BandwidthBytesPerS
	return time.Duration(s * float64(time.Second))
}

// Allreduce combines in element-wise across ranks into out, advancing all
// clocks together.
func (rc *Rank) Allreduce(op mpi.Op, in, out []float64) error {
	if err := rc.comm.Allreduce(op, in, out); err != nil {
		return err
	}
	t, err := rc.syncClocks()
	if err != nil {
		return err
	}
	rc.commWindow("MPI_Allreduce", t+rc.collectiveCost(8*len(in)))
	return nil
}

// Allgather concatenates every rank's block into out on all ranks.
func (rc *Rank) Allgather(in, out []float64) error {
	if err := rc.comm.Allgather(in, out); err != nil {
		return err
	}
	t, err := rc.syncClocks()
	if err != nil {
		return err
	}
	rc.commWindow("MPI_Allgather", t+rc.collectiveCost(8*len(out)))
	return nil
}

// Alltoall performs the complete exchange (FT's transpose). Cost scales
// with the full per-rank buffer.
func (rc *Rank) Alltoall(in, out []float64) error {
	if err := rc.comm.Alltoall(in, out); err != nil {
		return err
	}
	t, err := rc.syncClocks()
	if err != nil {
		return err
	}
	rc.commWindow("MPI_Alltoall", t+rc.collectiveCost(8*len(in)))
	return nil
}
