package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// internal tag space: user tags must be ≥ 0; collectives use negative tags
// so they can never match user receives.
const (
	tagBcast    = -4
	tagReduce   = -5
	tagGather   = -6
	tagAlltoall = -8
)

// Comm is one rank's endpoint in a world — the handle every MPI-style
// call goes through, analogous to MPI_COMM_WORLD bound to a rank. Derived
// communicators created with Split share the world but carry their
// own context id and rank translation table, so their traffic can never
// match a receive posted on a different communicator.
type Comm struct {
	rank  int
	size  int
	world *World
	// ctx is the communicator context id (0 = world).
	ctx int
	// group maps this communicator's ranks to world ranks; nil is
	// the identity (world communicator).
	group []int
	// invGroup maps world ranks back; nil for the world.
	invGroup map[int]int
	// splitSeq counts Split calls issued on this communicator, part of
	// child context-id derivation (see split.go).
	splitSeq int
}

// worldRank translates a communicator rank to a world rank.
func (c *Comm) worldRank(r int) int {
	if c.group == nil {
		return r
	}
	return c.group[r]
}

// localRank translates a world rank back into this communicator.
func (c *Comm) localRank(w int) int {
	if c.invGroup == nil {
		return w
	}
	return c.invGroup[w]
}

// tsend routes a send through this communicator's context.
func (c *Comm) tsend(to, tag int, data []byte) error {
	return c.world.send(c.worldRank(c.rank), c.worldRank(to), c.ctx, tag, data)
}

// trecv routes a receive through this communicator's context, translating
// the returned source back into communicator ranks.
func (c *Comm) trecv(from, tag int) (src, gotTag int, data []byte, err error) {
	wfrom := from
	if from != AnySource {
		wfrom = c.worldRank(from)
	}
	wsrc, gotTag, data, err := c.world.recv(c.worldRank(c.rank), wfrom, c.ctx, tag)
	if err != nil {
		return 0, 0, nil, err
	}
	return c.localRank(wsrc), gotTag, data, nil
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.size }

// Send delivers data to rank `to` with a non-negative user tag. The
// receiver owns data after the call; callers must not reuse the slice.
func (c *Comm) Send(to, tag int, data []byte) error {
	if tag < 0 {
		return fmt.Errorf("mpi: user tag %d must be ≥0", tag)
	}
	return c.tsend(to, tag, data)
}

// Recv blocks for a message matching (from, tag); from may be AnySource
// and tag AnyTag. It returns source rank, tag and payload.
func (c *Comm) Recv(from, tag int) (src, gotTag int, data []byte, err error) {
	return c.trecv(from, tag)
}

// --- typed helpers -------------------------------------------------------

// Float64sToBytes encodes a float64 slice little-endian.
func Float64sToBytes(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// BytesToFloat64s decodes a little-endian float64 slice; the byte length
// must be a multiple of 8.
func BytesToFloat64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: %d bytes is not a whole number of float64s", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// SendFloat64s sends a float64 slice.
func (c *Comm) SendFloat64s(to, tag int, xs []float64) error {
	return c.Send(to, tag, Float64sToBytes(xs))
}

// RecvFloat64s receives a float64 slice.
func (c *Comm) RecvFloat64s(from, tag int) ([]float64, error) {
	_, _, b, err := c.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	return BytesToFloat64s(b)
}
