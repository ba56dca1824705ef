package mpi

import (
	"fmt"
	"sort"
)

// split.go implements MPI_Comm_split: partitioning a communicator into
// disjoint sub-communicators by colour, with ranks ordered by key (ties
// broken by parent rank). NPB's multi-partition codes (BT, SP) build row
// and column communicators this way.

// Context-id derivation: every Split call on a communicator consumes a
// fresh sequence number (all members call Split collectively in the same
// order, so the sequence agrees without communication), and each colour
// group within that call gets its own slot:
//
//	child ctx = parent·4096 + seq·64 + colourIndex + 1
//
// Two sibling splits of one parent therefore never collide (different
// seq), nor do colour groups of one split (different colourIndex), nor do
// grandchildren of different parents (different parent ctx). The scheme
// bounds colours and splits per communicator and the nesting depth.
const (
	maxSplitColors   = 63
	maxSplitsPerComm = 63
	maxCtx           = 1 << 31
)

// Split partitions the communicator. Every member must call Split
// (collectively). Ranks passing the same colour form a new communicator,
// ordered by (key, parent rank); a negative colour opts out and receives
// nil. The returned communicator shares the parent's world but uses a
// fresh context id, so its traffic cannot be confused with the parent's.
func (c *Comm) Split(color, key int) (*Comm, error) {
	if c.splitSeq >= maxSplitsPerComm {
		return nil, fmt.Errorf("mpi: communicator exhausted its %d splits", maxSplitsPerComm)
	}
	seq := c.splitSeq
	c.splitSeq++
	// Exchange (color, key) triples; the allgather gives every member the
	// same view, so all sides compute identical groups and context ids.
	in := []float64{float64(color), float64(key)}
	all := make([]float64, 2*c.size)
	if err := c.Allgather(in, all); err != nil {
		return nil, err
	}

	type member struct{ color, key, parentRank int }
	members := make([]member, c.size)
	colorSet := map[int]bool{}
	for r := 0; r < c.size; r++ {
		m := member{color: int(all[2*r]), key: int(all[2*r+1]), parentRank: r}
		members[r] = m
		if m.color >= 0 {
			colorSet[m.color] = true
		}
	}
	if len(colorSet) > maxSplitColors {
		return nil, fmt.Errorf("mpi: split uses %d colours, max %d", len(colorSet), maxSplitColors)
	}
	if color < 0 {
		return nil, nil // MPI_COMM_NULL
	}

	// Deterministic colour indexing: ascending colour value.
	colors := make([]int, 0, len(colorSet))
	for col := range colorSet {
		colors = append(colors, col)
	}
	sort.Ints(colors)
	colorIndex := -1
	for i, col := range colors {
		if col == color {
			colorIndex = i
		}
	}

	// Build my group ordered by (key, parent rank).
	var group []member
	for _, m := range members {
		if m.color == color {
			group = append(group, m)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].parentRank < group[j].parentRank
	})

	newCtx := c.ctx*4096 + seq*64 + colorIndex + 1
	if newCtx >= maxCtx {
		return nil, fmt.Errorf("mpi: split nesting too deep: context id overflow")
	}
	sub := &Comm{
		size:     len(group),
		world:    c.world,
		ctx:      newCtx,
		group:    make([]int, len(group)),
		invGroup: make(map[int]int, len(group)),
	}
	for newRank, m := range group {
		world := c.worldRank(m.parentRank)
		sub.group[newRank] = world
		sub.invGroup[world] = newRank
		if m.parentRank == c.rank {
			sub.rank = newRank
		}
	}
	return sub, nil
}
