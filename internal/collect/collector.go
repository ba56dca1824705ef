package collect

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tempest/internal/critpath"
	"tempest/internal/hotspot"
	"tempest/internal/introspect"
	"tempest/internal/parser"
	"tempest/internal/store"
	"tempest/internal/trace"
)

// critTrackCap bounds each node's per-lane timeline to a fixed segment
// budget: a collector serves long-lived fleets, so per-node critical-path
// state must stay O(lanes + functions), never O(events). Overflowing
// tracks coarsen (adjacent segments merge) instead of growing.
const critTrackCap = 512

// Options configures a Collector. The zero value selects the defaults
// noted per field.
type Options struct {
	// Unit of aggregated statistics (default Fahrenheit, like the paper).
	Unit parser.Unit
	// SampleInterval overrides tempd-period auto-detection in per-node
	// profiles (0 = auto-detect, the offline parser's behaviour).
	SampleInterval time.Duration
	// Shards is the number of ingest shards (default 4). Nodes are
	// hashed across shards by node ID; each shard's lock guards its
	// nodes' Builders, so ingest and query serialise per shard and never
	// lock across shards.
	Shards int
	// Now overrides the clock used for per-node last-seen tracking
	// (default time.Now) — injectable for deterministic tests.
	Now func() time.Time
	// Logger receives structured warnings for conditions that would
	// otherwise be invisible (response encode failures, aborted
	// streams). Default: slog.Default().
	Logger *slog.Logger
	// StoreDir, when set, makes ingest durable: each shard appends every
	// accepted batch to an on-disk store under this directory before
	// acking it, and New replays the store into warm builders so acked
	// data survives a crash. Empty = memory-only (the pre-store behavior).
	StoreDir string
	// StoreOptions tunes the durable store (Window, Retention, SyncEvery).
	// Metrics, Logger, Now and — unless overridden — Compact are wired by
	// the collector itself.
	StoreOptions store.Options
	// ArchiveGranule is the wall-clock resolution of ranked history
	// (default: the store's segment Window): every node's position is
	// marked at each granule boundary, /api/hotspots?window= answers for
	// whole granules, and retention compaction folds aged-out batches into
	// one archive window per granule. Finer granules answer for narrower
	// windows at the cost of more marks and a larger archive.
	ArchiveGranule time.Duration
	// Policy configures the adaptive-sampling policy engine: when enabled,
	// the collector ranks each node's coarse instrumentation buckets and
	// piggybacks per-function enable/disable directives on ship-stream
	// acks, closing the loop from ranking back to instrumentation.
	Policy PolicyOptions
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.ArchiveGranule <= 0 {
		o.ArchiveGranule = o.StoreOptions.Window
	}
	if o.ArchiveGranule <= 0 {
		o.ArchiveGranule = time.Hour // store.Options' own Window default
	}
	o.Policy = o.Policy.withDefaults()
	return o
}

// NodeStatus is one node's ingest-side state, as served by /api/nodes.
type NodeStatus struct {
	NodeID    uint32    `json:"node"`
	Rank      uint32    `json:"rank"`
	Events    uint64    `json:"events"`
	Segments  uint64    `json:"segments"`
	DurationS float64   `json:"duration_s"`
	Truncated bool      `json:"truncated"`
	LastSeen  time.Time `json:"last_seen"`
	Err       string    `json:"error,omitempty"`
	// ArchivedEvents counts events retention compacted out of raw history
	// into folded hot-spot archives — still in Hotspots, gone from
	// /api/profile.
	ArchivedEvents uint64 `json:"archived_events,omitempty"`
	// LateEvents counts enters, exits and samples that arrived stamped
	// before the profile builder's fold boundary (parser.Builder.Fold):
	// more than two batches out of order, attributed best effort.
	LateEvents uint64 `json:"late_events,omitempty"`
}

// nodeState is one node's ingest state, owned by exactly one shard.
type nodeState struct {
	id   uint32
	rank uint32
	sym  *trace.SymTab
	// core is the node's one lane table: every accepted event is matched
	// against its stacks once (fold) and the fact handed to both
	// consumers below.
	core     *trace.Fold
	builder  *parser.Builder
	nextSeq  uint64
	segments uint64
	lastSeen time.Time
	err      error // poisoned: gap in the stream or Builder failure

	// crit is the node's streaming critical-path analyzer: it consumes the
	// same facts as builder and answers /api/critpath and /api/timeline.
	// Tolerant by design — it keeps counting through streams the builder
	// would reject — but it is only fed what the builder took (on a batch
	// that poisons the builder, the events before the offending one), so
	// both views describe the same event history.
	crit *critpath.Analyzer

	// symsStored is how much of sym the durable chunk stream already
	// carries; the bulk path encodes fresh symbols from this cursor so
	// every stored batch stays densely decodable on replay.
	symsStored int
	// head is the end of the granule of the node's newest commit, 0 before
	// the first; marks are its positions at the end of every granule it
	// committed in before that one, oldest first (see window.go).
	head  int64
	marks []granuleMark

	// archEvents, arch and archHeat are the node's compacted history,
	// replayed from the store's checkpoint archive at startup: the events
	// folded away, their heat granule by granule, and all of it per sensor
	// id. Everything ingested since is in the builder, so a compaction
	// that fires mid-run changes none of them.
	archEvents uint64
	arch       []archiveGranule
	archHeat   [][]hotspot.FunctionHeat

	// policy is the node's adaptive-sampling state (nil until the policy
	// engine first touches the node; see policy.go).
	policy *nodePolicy
}

// shard owns a disjoint subset of the fleet's nodes. It is a lock, not an
// actor: every ingest and query call is synchronous, so callers run their
// own code on their own goroutine, under mu, through do. Everything below
// waiting is shard-owned state, touched only inside do — or during New's
// single-threaded open/replay phase, before anything else can reach it.
type shard struct {
	id int
	c  *Collector

	mu sync.Mutex
	// waiting counts callers blocked on mu — the shard's lag, read by the
	// /metrics gauge. It is an atomic so rendering, which holds the
	// registry's lock, never takes mu.
	waiting atomic.Int64

	closed bool // set by Close; do runs nothing afterwards
	nodes  map[uint32]*nodeState

	// store is nil when durability is off or after the shard degraded.
	store *store.Disk

	// batch is the one chunk decode buffer (see decode).
	batch []trace.Event

	// hist is the shard's ranged-series state: the decoded checkpoint
	// archive plus an LRU of decoded raw windows, lazily built on the
	// first /api/series?from=&to= (see window.go).
	hist shardHistory
}

// Collector is the fleet ingest service: it accepts shipped chunk
// streams and bulk trace uploads from many nodes concurrently, folds
// each node's events into a streaming parser.Builder on one of N
// hash-partitioned shards, and serves cluster-wide profiles, hot-spot
// rankings and self-observability through Handler's HTTP API.
type Collector struct {
	opts    Options
	shards  []*shard
	metrics *Metrics

	mu     sync.Mutex
	ln     net.Listener          // guarded by mu
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu
	wg     sync.WaitGroup        // connection handlers

	scanners sync.Pool // *trace.Scanner, Reset per bulk connection
}

// errCollectorClosed reports a query or ingest call after Close.
var errCollectorClosed = errors.New("collect: collector closed")

// New returns a running collector; attach ingest listeners with Serve and
// the HTTP API with Handler. With Options.StoreDir set, New first recovers
// the durable store — salvaging any crash-torn tail — and replays acked
// history into warm builders, so the collector resumes where the last
// process died.
func New(opts Options) *Collector {
	opts = opts.withDefaults()
	c := &Collector{
		opts:    opts,
		metrics: newMetrics(opts.Shards),
		conns:   make(map[net.Conn]struct{}),
	}
	c.shards = make([]*shard, opts.Shards)
	for i := range c.shards {
		c.shards[i] = &shard{
			id:    i,
			nodes: make(map[uint32]*nodeState),
			c:     c,
		}
	}
	if opts.StoreDir != "" {
		c.openStores()
	}
	// Registered after the shard segment counters so the /metrics family
	// order matches the original hand-rolled exposition byte for byte.
	for i, sh := range c.shards {
		c.metrics.reg.FuncL("tempest_collect_shard_queue_depth", fmt.Sprintf("shard=%q", fmt.Sprint(i)),
			"Requests waiting in each shard's ingest queue (lag).",
			func() float64 { return float64(sh.waiting.Load()) })
	}
	return c
}

// openStores opens one disk store per shard and replays recovered
// history into warm node states. A shard whose store cannot open or
// replay runs degraded (memory-only) instead of failing the collector:
// ingest availability outranks durability, and the degradation is loud —
// logged, counted on the debug registry, and surfaced on /healthz.
func (c *Collector) openStores() {
	so := c.opts.StoreOptions
	so.Metrics = store.NewMetrics(c.metrics.debug)
	so.Logger = c.opts.Logger
	so.Now = c.opts.Now
	if so.Compact == nil {
		so.Compact = NewCompactor(c.opts.Unit, c.opts.SampleInterval, c.opts.ArchiveGranule)
	}
	for i, sh := range c.shards {
		dir := filepath.Join(c.opts.StoreDir, store.ShardDirName(i))
		st, err := store.Open(dir, so)
		if err != nil {
			c.opts.Logger.Error("store open failed; shard ingests memory-only",
				"shard", i, "dir", dir, "err", err)
			c.noteDegrade()
			continue
		}
		sh.store = st
		if err := st.Replay(sh.replayArchive, sh.replayBatch); err != nil {
			// Replay already salvaged what it could; the store itself still
			// accepts appends, so stay durable with partial history.
			c.opts.Logger.Error("store replay incomplete", "shard", i, "err", err)
		}
	}
}

// noteDegrade records one shard's fall to memory-only ingest.
func (c *Collector) noteDegrade() {
	c.metrics.storeDegrades.Add(1)
	c.metrics.storeDegradedShards.Add(1)
}

// DegradedStoreShards reports how many shards are ingesting memory-only
// after a store failure (0 = fully durable, or durability not enabled).
func (c *Collector) DegradedStoreShards() int {
	return int(c.metrics.storeDegradedShards.Value())
}

// shardFor hashes a node ID onto its owning shard (FNV-1a, stable
// across restarts so dashboards keep their shard attribution).
func (c *Collector) shardFor(node uint32) *shard {
	h := uint32(2166136261)
	for i := 0; i < 4; i++ {
		h ^= (node >> (8 * i)) & 0xff
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// do runs fn on the caller's goroutine with the shard to itself; results
// travel in the variables fn captures. Once the shard is closed it
// reports errCollectorClosed without running fn. The lock is released by
// defer, so a query body that panics in an HTTP handler cannot wedge the
// shard. fn must not call do: nothing runs with two shard locks held.
func (sh *shard) do(fn func()) error {
	sh.waiting.Add(1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.waiting.Add(-1)
	if sh.closed {
		return errCollectorClosed
	}
	fn()
	return nil
}

// Serve accepts ingest connections on ln until the collector is closed
// or the listener fails. Each connection is either a shipped chunk
// stream (hello magic) or a bulk trace upload (TPST magic).
func (c *Collector) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errCollectorClosed
	}
	c.ln = ln
	c.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return nil
		}
		c.conns[conn] = struct{}{}
		c.wg.Add(1)
		c.mu.Unlock()
		go func() {
			defer c.wg.Done()
			c.serveConn(conn)
			c.mu.Lock()
			delete(c.conns, conn)
			c.mu.Unlock()
		}()
	}
}

// serveConn dispatches one ingest connection by its magic.
func (c *Collector) serveConn(conn net.Conn) {
	defer conn.Close()
	c.metrics.connections.Add(1)
	br := bufio.NewReader(&countingReader{r: conn, n: c.metrics.bytes})
	magic, err := br.Peek(4)
	if err != nil {
		return
	}
	switch binary.LittleEndian.Uint32(magic) {
	case helloMagic:
		br.Discard(4)
		c.serveShipStream(conn, br)
	default:
		// Anything else is handed to the trace scanner, which enforces
		// the TPST magic itself and yields a precise error.
		c.serveBulk(conn, br)
	}
}

// Metrics exposes the collector's self-observability counters.
func (c *Collector) Metrics() *Metrics { return c.metrics }

// Close shuts the collector down: the ingest listener stops, open
// connections are torn down and, once their handlers have returned, each
// shard is closed and its store flushed — when Close returns, everything
// acked is on disk. Close is idempotent.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	// Connection handlers exit once their conns die; closing the shards
	// only then means a handler never finds its shard gone mid-stream.
	c.wg.Wait()
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.closed = true
		var err error
		if sh.store != nil {
			err = sh.store.Close()
		}
		sh.mu.Unlock()
		if err != nil {
			c.opts.Logger.Error("store close failed", "shard", sh.id, "err", err)
		}
	}
	return nil
}

// countingReader tallies bytes read into an ingest byte counter.
type countingReader struct {
	r io.Reader
	n *introspect.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(uint64(n))
	return n, err
}
