package collect

import (
	"fmt"
	"sort"
	"time"

	"tempest/internal/critpath"
	"tempest/internal/hotspot"
	"tempest/internal/parser"
)

// The live read path: answers computed from the nodes' in-memory state.
// Every query copies what it needs out of the shard inside do — fresh
// snapshots, never references into state the next frame will change —
// and never creates a node. The ranged queries over the durable store
// are in window.go.

// known runs fn on one node's state under its shard's lock, or reports
// that the collector has no such node.
func (c *Collector) known(id uint32, fn func(ns *nodeState)) (err error) {
	sh := c.shardFor(id)
	closed := sh.do(func() {
		if ns, ok := sh.nodes[id]; ok {
			fn(ns)
		} else {
			err = errUnknownNode(id)
		}
	})
	if closed != nil {
		return closed
	}
	return err
}

func errUnknownNode(id uint32) error { return fmt.Errorf("collect: unknown node %d", id) }

// eachNode runs fn on every node's state, one shard lock at a time and in
// no order. A closed collector has no nodes to visit, which gives every
// fleet-wide query its empty answer.
func (c *Collector) eachNode(fn func(ns *nodeState)) {
	for _, sh := range c.shards {
		_ = sh.do(func() {
			for _, ns := range sh.nodes {
				fn(ns)
			}
		})
	}
}

// Nodes lists every known node's ingest status, sorted by node ID.
func (c *Collector) Nodes() []NodeStatus {
	out := []NodeStatus{}
	c.eachNode(func(ns *nodeState) {
		st := NodeStatus{
			NodeID:         ns.id,
			Rank:           ns.rank,
			Events:         ns.builder.Events(),
			Segments:       ns.segments,
			DurationS:      ns.builder.Duration().Seconds(),
			Truncated:      ns.builder.Truncated(),
			LastSeen:       ns.lastSeen,
			ArchivedEvents: ns.archEvents,
			LateEvents:     ns.builder.Late(),
		}
		if ns.err != nil {
			st.Err = ns.err.Error()
		}
		out = append(out, st)
	})
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	return out
}

// Profile assembles the fleet-wide profile from a live snapshot of every
// node's builder, nodes sorted by ID — the online equivalent of
// parser.ParseAll over the same traces.
func (c *Collector) Profile() *parser.Profile {
	var nps []*parser.NodeProfile
	c.eachNode(func(ns *nodeState) {
		// A poisoned builder still has a last-good story to tell via
		// status; skip it in fleet profiles.
		if np, err := ns.builder.Snapshot(); err == nil {
			nps = append(nps, np)
		}
	})
	return profileOf(c.opts.Unit, nps)
}

// profileOf assembles node profiles, in any order, into one sorted by ID.
func profileOf(unit parser.Unit, nps []*parser.NodeProfile) *parser.Profile {
	sort.Slice(nps, func(i, j int) bool { return nps[i].NodeID < nps[j].NodeID })
	p := &parser.Profile{Unit: unit}
	for _, np := range nps {
		p.Nodes = append(p.Nodes, *np)
	}
	return p
}

// NodeProfile snapshots one node's in-progress profile. A poisoned node
// has none and reads as unknown; its story is in Nodes.
func (c *Collector) NodeProfile(id uint32) (*parser.NodeProfile, error) {
	var np *parser.NodeProfile
	err := c.known(id, func(ns *nodeState) { np, _ = ns.builder.Snapshot() })
	if err == nil && np == nil {
		err = errUnknownNode(id)
	}
	return np, err
}

// CritPath snapshots one node's streaming critical-path analysis: the
// serialization/wait summary, the bounded per-lane timeline tracks, and
// the analyzed duration. The snapshot is non-destructive — ingest keeps
// folding and later calls see strictly more history.
func (c *Collector) CritPath(id uint32) (sum *critpath.Summary, tracks []critpath.Track, dur time.Duration, err error) {
	err = c.known(id, func(ns *nodeState) {
		// Summary() is a fresh value and Tracks() copies its segments.
		sum, tracks, dur = ns.crit.Summary(), ns.crit.Tracks(), ns.crit.Duration()
	})
	return sum, tracks, dur, err
}

// PolicyStatuses reports the adaptive-sampling policy state for every
// node the engine has touched, sorted by node ID — the /api/policy
// payload.
func (c *Collector) PolicyStatuses() []PolicyStatus {
	out := []PolicyStatus{}
	c.eachNode(func(ns *nodeState) {
		if ns.policy != nil {
			out = append(out, ns.policyStatus())
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	return out
}

// archivedHeat collects every shard's compacted hot-spot contributions
// for one sensor.
func (c *Collector) archivedHeat(sensor int) []hotspot.FunctionHeat {
	var out []hotspot.FunctionHeat
	c.eachNode(func(ns *nodeState) {
		if sensor >= 0 && sensor < len(ns.archHeat) {
			out = append(out, ns.archHeat[sensor]...)
		}
	})
	return out
}

// nodeArchivedEvents reports how many of one node's events retention has
// folded out of raw history (0 for unknown nodes — the caller already
// resolved existence).
func (c *Collector) nodeArchivedEvents(id uint32) (n uint64) {
	_ = c.known(id, func(ns *nodeState) { n = ns.archEvents }) // unknown or closed: 0
	return n
}
