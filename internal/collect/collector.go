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
	"sort"
	"sync"
	"time"

	"tempest/instrument"
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
	// hashed across shards by node ID; each shard's worker goroutine
	// exclusively owns its nodes' Builders, so ingest and query
	// serialise per shard and never lock across shards.
	Shards int
	// QueueLen bounds each shard's ingest queue (default 128); its
	// instantaneous depth is the shard's lag, exported on /metrics.
	QueueLen int
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
	// StoreOptions tunes the durable store (Window, MaxSegmentBytes,
	// Retention, SyncEvery). Metrics, Logger, Now and — unless overridden —
	// Compact are wired by the collector itself.
	StoreOptions store.Options
	// ArchiveGranule is the wall-clock bucket width retention compaction
	// folds aged-out batches into (default: the store's segment Window).
	// Finer granules keep compacted history answerable for narrower
	// /api/hotspots?window= queries at the cost of a larger archive.
	ArchiveGranule time.Duration
	// WindowCache bounds the per-shard LRU of decoded historical windows
	// (default 16 entries) so dashboard scrubbing doesn't re-decode the
	// same raw segments per request.
	WindowCache int
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
	if o.QueueLen <= 0 {
		o.QueueLen = 128
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.WindowCache <= 0 {
		o.WindowCache = 16
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
}

// nodeState is one node's ingest state, owned by exactly one shard
// worker.
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
	batch    []trace.Event // reused chunk decode buffer
	err      error         // poisoned: gap in the stream or Builder failure

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
	// archEvents and archHeat are the node's compacted history, replayed
	// from the store's checkpoint archive at startup.
	archEvents uint64
	archHeat   [][]hotspot.FunctionHeat // per sensor id

	// policy is the node's adaptive-sampling state (nil until the policy
	// engine first touches the node; see policy.go).
	policy *nodePolicy
}

// shardReq is one request into a shard worker. Exactly one of the
// operation fields is used; reply always receives one shardResp.
type shardReq struct {
	op     shardOp
	node   uint32
	rank   uint32
	seq    uint64
	chunk  []byte        // opChunk: frame payload
	batch  []trace.Event // opEvents: decoded events (bulk mode)
	sym    *trace.SymTab // opEvents: table the batch's FuncIDs resolve in
	trunc  bool          // opFinishBulk
	sensor int           // opArchHeat, opWindowHeat
	from   int64         // opWindowHeat, opWindowProfile: wall-clock range
	to     int64
	reply  chan shardResp
}

type shardOp int

const (
	opResume shardOp = iota
	opChunk
	opCoarse
	opEvents
	opFinishBulk
	opSnapshot
	opStatus
	opArchHeat
	opPolicyStatus
	opCritPath
	opWindowHeat
	opWindowProfile
	opWindows
)

// shardResp carries a shard worker's answer.
type shardResp struct {
	resume   uint64
	dup      bool
	err      error
	profiles []*parser.NodeProfile
	statuses []NodeStatus
	heat     []hotspot.FunctionHeat
	// ctl, when non-nil, is a policy directive for the node this request
	// concerned; the connection handler piggybacks it after the ack.
	ctl      *ctlFrame
	policies []PolicyStatus
	// crit fields answer opCritPath: a fresh Summary and copied Tracks, so
	// handing them across the reply never races the worker's next fold.
	crit       *critpath.Summary
	critTracks []critpath.Track
	critDur    time.Duration
	// History fields answer opWindowHeat/opWindowProfile/opWindows.
	windows    []WindowEntry
	archEvents uint64
	archived   bool // the queried range touches folded archive windows
	durable    bool
}

// shard owns a disjoint subset of the fleet's nodes. Its worker
// goroutine is the only code that touches the nodes map, Builders and
// the shard's durable store.
type shard struct {
	id    int
	work  chan shardReq
	nodes map[uint32]*nodeState
	c     *Collector

	// store is never nil: Memory when durability is off or after the
	// shard degraded. Owned by the worker goroutine (like nodes), except
	// during New's single-threaded open/replay phase.
	store   store.Store
	durable bool // disk-backed and not degraded

	// hist is the shard's historical-query state: the decoded checkpoint
	// archive plus an LRU of decoded raw windows. Worker-owned, lazily
	// built on the first time-ranged query (see window.go).
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
	wg     sync.WaitGroup

	// callMu fences shard calls against shutdown: callers hold the read
	// side for the duration of one worker round-trip; Close takes the
	// write side before closing the work channels, so no request is
	// ever sent to a dead worker.
	callMu sync.RWMutex
	down   bool // guarded by callMu

	scanners sync.Pool // *trace.Scanner, Reset per bulk connection
}

// errCollectorClosed reports a query or ingest call after Close.
var errCollectorClosed = errors.New("collect: collector closed")

// New returns a running collector (its shard workers are live); attach
// ingest listeners with Serve and the HTTP API with Handler. With
// Options.StoreDir set, New first recovers the durable store — salvaging
// any crash-torn tail — and replays acked history into warm builders, so
// the collector resumes where the last process died.
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
			work:  make(chan shardReq, opts.QueueLen),
			nodes: make(map[uint32]*nodeState),
			c:     c,
			store: store.Memory{},
		}
	}
	if opts.StoreDir != "" {
		c.openStores()
	}
	// Workers start only after replay: recovery owns the node maps
	// single-threaded, exactly like the workers will.
	for _, sh := range c.shards {
		c.wg.Add(1)
		go sh.run(&c.wg)
	}
	// Registered after the shard segment counters so the /metrics family
	// order matches the original hand-rolled exposition byte for byte.
	for i, sh := range c.shards {
		sh := sh
		c.metrics.reg.FuncL("tempest_collect_shard_queue_depth", fmt.Sprintf("shard=%q", fmt.Sprint(i)),
			"Requests waiting in each shard's ingest queue (lag).",
			func() float64 { return float64(len(sh.work)) })
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
		granule := c.opts.ArchiveGranule
		if granule <= 0 {
			granule = so.Window
		}
		if granule <= 0 {
			granule = time.Hour // store.Options' own Window default
		}
		so.Compact = NewCompactor(c.opts.Unit, c.opts.SampleInterval, granule)
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
		sh.durable = true
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

// call routes one request to a shard worker and waits for its reply.
func (sh *shard) call(req shardReq) shardResp {
	sh.c.callMu.RLock()
	defer sh.c.callMu.RUnlock()
	if sh.c.down {
		return shardResp{err: errCollectorClosed}
	}
	req.reply = make(chan shardResp, 1)
	sh.work <- req
	return <-req.reply
}

// run is the shard worker loop: the single goroutine that owns this
// shard's builders. On exit it closes the shard's store, which flushes —
// so by the time Close returns, everything acked is on disk.
func (sh *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for req := range sh.work {
		req.reply <- sh.handle(req)
	}
	if err := sh.store.Close(); err != nil {
		sh.c.opts.Logger.Error("store close failed", "shard", sh.id, "err", err)
	}
}

// persist appends one accepted batch to the shard's store before the
// caller acks it. A failed append degrades the shard to memory-only
// ingest — loudly — instead of wedging the fleet on a dying disk.
func (sh *shard) persist(ns *nodeState, seq uint64, flags uint8, payload []byte) {
	if !sh.durable {
		return
	}
	wall := sh.c.opts.Now().UnixNano()
	err := sh.store.Append(store.Batch{
		Node:     ns.id,
		Rank:     ns.rank,
		Seq:      seq,
		Flags:    flags,
		WallNano: wall,
		Payload:  payload,
	})
	if err != nil {
		sh.c.opts.Logger.Error("store append failed; shard degraded to memory-only ingest",
			"shard", sh.id, "node", ns.id, "err", err)
		sh.store.Close()
		sh.store = store.Memory{}
		sh.durable = false
		sh.c.noteDegrade()
		return
	}
	ns.symsStored = ns.sym.Len()
	// Cached window decodes whose range extends past this commit are now
	// missing a batch; drop them so the next query re-decodes.
	sh.hist.invalidateAppend(wall)
}

// persistBulk re-encodes one bulk-path batch as a self-contained chunk —
// the symbols registered since the last stored batch plus the events —
// so the durable stream replays through the same dense-id chunk decoder
// as shipped frames. Flags always carry FlagBulk: replayed bulk batches
// must not advance the ship resume cursor.
func (sh *shard) persistBulk(ns *nodeState, flags uint8, events []trace.Event) {
	if !sh.durable {
		return
	}
	payload, _, err := encodeChunk(events, ns.sym, ns.symsStored)
	if err != nil {
		// Events that just folded into the builder failed to re-encode:
		// a codec invariant broke. Degrade rather than persist a gap.
		sh.c.opts.Logger.Error("bulk batch re-encode failed; shard degraded to memory-only ingest",
			"shard", sh.id, "node", ns.id, "err", err)
		sh.store.Close()
		sh.store = store.Memory{}
		sh.durable = false
		sh.c.noteDegrade()
		return
	}
	sh.persist(ns, 0, store.FlagBulk|flags, payload)
}

// replayArchive seeds node states from the store's checkpoint archive:
// compacted history whose raw batches are gone. Builders attach
// mid-stream (the archive's symbol table carries the dense-id prefix),
// and folded hot-spot rankings go to archHeat for Hotspots to merge.
func (sh *shard) replayArchive(blob []byte) error {
	arch, err := decodeArchive(blob)
	if err != nil {
		sh.c.opts.Logger.Error("store archive undecodable; compacted history dropped",
			"shard", sh.id, "err", err)
		return nil // raw segments still replay
	}
	for _, ent := range arch.nodes {
		sym := ent.symTab()
		ns := sh.newNode(ent.node, ent.rank, sym, true)
		ns.nextSeq = ent.nextSeq
		ns.segments = ent.segments
		ns.lastSeen = sh.c.opts.Now()
		ns.symsStored = sym.Len()
		ns.archEvents = ent.events
		ns.archHeat = arch.nodeHeat(ent.node)
		if ent.truncated {
			ns.builder.SetTruncated(true)
		}
	}
	return nil
}

// replayBatch folds one recovered raw batch back into its node — the
// same cursor and decode discipline as live ingest, minus the wire
// metrics (nothing was read off a connection this process).
func (sh *shard) replayBatch(b store.Batch) error {
	ns := sh.node(b.Node, b.Rank)
	ns.lastSeen = time.Unix(0, b.WallNano)
	if b.Flags&store.FlagPolicy != 0 {
		// A persisted directive: Seq carries the policy revision, not a
		// ship sequence number. Restore the latest so the reborn collector
		// re-issues exactly what its predecessor last told the node.
		np := ns.policyState()
		if b.Seq >= np.rev {
			np.rev = b.Seq
			np.payload = append([]byte(nil), b.Payload...)
			np.detail = map[string]bool{}
			if d, err := decodeControl(b.Payload); err == nil {
				for _, f := range d.Funcs {
					if f.Mode == instrument.ModeDetail {
						np.detail[f.Name] = true
					}
				}
			}
		}
		return nil
	}
	if b.Flags&store.FlagBulk == 0 {
		if b.Seq < ns.nextSeq {
			return nil // duplicate ack survived a historic race; drop like live ingest
		}
		if b.Seq > ns.nextSeq {
			ns.err = fmt.Errorf("collect: node %d: durable history gap (%d..%d lost)", ns.id, ns.nextSeq, b.Seq-1)
			ns.nextSeq = b.Seq + 1
			return nil
		}
		ns.nextSeq = b.Seq + 1
	}
	ns.segments++
	if b.Flags&store.FlagTruncated != 0 {
		ns.builder.SetTruncated(true)
	}
	if ns.err != nil {
		return nil
	}
	if b.Flags&store.FlagCoarse != 0 {
		// Coarse reports hold no events: the cursor already advanced
		// above; re-warm the policy ranking and leave the builder alone.
		if sh.c.opts.Policy.Enabled {
			if stats, err := decodeCoarse(b.Payload); err == nil {
				ns.policyState().accumulateCoarse(stats)
			}
		}
		return nil
	}
	batch, err := decodeChunk(b.Payload, ns.sym, ns.batch)
	if err != nil {
		ns.err = err
		return nil
	}
	ns.batch = batch[:0]
	ns.symsStored = ns.sym.Len()
	ns.err = ns.fold(batch)
	return nil
}

// node returns (creating if needed) the state for one node.
func (sh *shard) node(id, rank uint32) *nodeState {
	ns, ok := sh.nodes[id]
	if !ok {
		ns = sh.newNode(id, rank, trace.NewSymTab(), false)
	}
	return ns
}

// newNode registers a fresh node state: one fold core over sym with the
// profile builder and the critical-path analyzer as its consumers.
// midStream is for a node whose stream begins in compacted history.
func (sh *shard) newNode(id, rank uint32, sym *trace.SymTab, midStream bool) *nodeState {
	core := trace.NewFold(sym)
	ns := &nodeState{
		id:      id,
		rank:    rank,
		sym:     sym,
		core:    core,
		builder: newBuilder(core, id, sh.c.opts.Unit, sh.c.opts.SampleInterval, midStream),
		crit:    critpath.New(critpath.Options{Timeline: true, MaxTrackSegments: critTrackCap}),
	}
	sh.nodes[id] = ns
	sh.c.metrics.nodes.Add(1)
	return ns
}

// newBuilder is the one place the collector builds a profile builder.
// midStream marks a builder whose stream starts after the node's first
// event — behind compacted history, or at the edge of a replayed window —
// so exits of invocations opened earlier are expected, not errors.
func newBuilder(core *trace.Fold, node uint32, unit parser.Unit, sampleInterval time.Duration, midStream bool) *parser.Builder {
	return parser.NewBuilderOn(core, node, parser.Options{Unit: unit, SampleInterval: sampleInterval, MidStream: midStream})
}

// fold runs one accepted batch through the node's single stack-matching
// pass: the core steps each event once and both consumers take the fact.
// An error is the builder's and poisons the node; the analyzer has then
// seen exactly the events the builder consumed.
func (ns *nodeState) fold(batch []trace.Event) error {
	for i := range batch {
		e := &batch[i]
		m := ns.core.Step(e)
		if err := ns.builder.Apply(e, m); err != nil {
			return err
		}
		ns.crit.Apply(ns.id, ns.core, e, m)
	}
	return nil
}

// handle executes one request against shard-owned state.
func (sh *shard) handle(req shardReq) shardResp {
	switch req.op {
	case opResume:
		ns := sh.node(req.node, req.rank)
		ns.lastSeen = sh.c.opts.Now()
		// A (re)connecting node gets its current directive re-issued:
		// control frames lost with a dead link are recovered here, not
		// retried individually — full-set semantics make that safe.
		return shardResp{resume: ns.nextSeq, ctl: ns.policy.currentDirective()}

	case opChunk:
		ns := sh.node(req.node, req.rank)
		ns.lastSeen = sh.c.opts.Now()
		if req.seq < ns.nextSeq {
			// Duplicate of a chunk that arrived before the link died;
			// ack it again so the shipper retires it.
			return shardResp{resume: ns.nextSeq, dup: true}
		}
		if req.seq > ns.nextSeq {
			// A gap can only mean this collector lost state the shipper
			// already had acknowledged (restart mid-stream). The symbols
			// in the hole are unrecoverable, so the node is poisoned
			// rather than mis-attributed; acking keeps the shipper from
			// resending forever.
			ns.err = fmt.Errorf("collect: node %d: sequence gap (%d..%d lost to a collector restart?)", ns.id, ns.nextSeq, req.seq-1)
			ns.nextSeq = req.seq + 1
			return shardResp{resume: ns.nextSeq, err: ns.err}
		}
		ns.nextSeq = req.seq + 1
		ns.segments++
		sh.c.metrics.shardSegments[sh.id].Add(1)
		if ns.err != nil {
			return shardResp{resume: ns.nextSeq, err: ns.err}
		}
		decodeStart := time.Now()
		batch, err := decodeChunk(req.chunk, ns.sym, ns.batch)
		sh.c.metrics.decodeSeconds.ObserveSince(decodeStart)
		if err != nil {
			ns.err = err
			return shardResp{resume: ns.nextSeq, err: err}
		}
		ns.batch = batch[:0]
		// Durable commit before the ack this response triggers: once the
		// shipper retires the chunk, only the store remembers it.
		sh.persist(ns, req.seq, 0, req.chunk)
		foldStart := time.Now()
		err = ns.fold(batch)
		sh.c.metrics.foldSeconds.ObserveSince(foldStart)
		if err != nil {
			ns.err = err
			return shardResp{resume: ns.nextSeq, err: err}
		}
		sh.c.metrics.events.Add(uint64(len(batch)))
		var ctl *ctlFrame
		if sh.c.opts.Policy.Enabled {
			// Detail events are the overhead the budget throttles on.
			ns.policyState().roundEvents += uint64(len(batch))
			ctl = sh.evalPolicy(ns)
		}
		return shardResp{resume: ns.nextSeq, ctl: ctl}

	case opCoarse:
		// A coarse bucket report: shares the ship sequence space (and its
		// dedup/gap discipline) with ordinary chunks, but the payload feeds
		// the policy engine, not the profile builder. Decode problems are
		// advisory — count, drop, ack — a malformed report must never
		// poison the forward event stream.
		ns := sh.node(req.node, req.rank)
		ns.lastSeen = sh.c.opts.Now()
		if req.seq < ns.nextSeq {
			return shardResp{resume: ns.nextSeq, dup: true}
		}
		if req.seq > ns.nextSeq {
			ns.err = fmt.Errorf("collect: node %d: sequence gap (%d..%d lost to a collector restart?)", ns.id, ns.nextSeq, req.seq-1)
			ns.nextSeq = req.seq + 1
			return shardResp{resume: ns.nextSeq, err: ns.err}
		}
		ns.nextSeq = req.seq + 1
		ns.segments++
		sh.c.metrics.shardSegments[sh.id].Add(1)
		sh.c.metrics.coarseSegments.Add(1)
		if ns.err != nil {
			return shardResp{resume: ns.nextSeq, err: ns.err}
		}
		// Persist before the ack even though the payload is advisory: the
		// report consumed a sequence number, and replay must walk the
		// cursor through it or recovery would see a gap and poison the node.
		sh.persist(ns, req.seq, store.FlagCoarse, req.chunk)
		stats, err := decodeCoarse(req.chunk)
		if err != nil {
			sh.c.metrics.coarseErrors.Add(1)
			return shardResp{resume: ns.nextSeq}
		}
		var ctl *ctlFrame
		if sh.c.opts.Policy.Enabled {
			ns.policyState().accumulateCoarse(stats)
			ctl = sh.evalPolicy(ns)
		}
		return shardResp{resume: ns.nextSeq, ctl: ctl}

	case opEvents:
		ns := sh.node(req.node, req.rank)
		ns.lastSeen = sh.c.opts.Now()
		ns.segments++
		sh.c.metrics.shardSegments[sh.id].Add(1)
		if ns.err != nil {
			return shardResp{err: ns.err}
		}
		// Bulk batches carry the upload's own symbol ids; fold them into
		// the node's cumulative table (idempotent by name) and rewrite in
		// place — the batch buffer is the caller's, synchronously lent.
		for i := range req.batch {
			e := &req.batch[i]
			switch e.Kind {
			case trace.KindEnter, trace.KindExit, trace.KindMarker:
				name, err := req.sym.Name(e.FuncID)
				if err != nil {
					ns.err = err
					return shardResp{err: err}
				}
				e.FuncID = ns.sym.Register(name)
			}
		}
		sh.persistBulk(ns, 0, req.batch)
		foldStart := time.Now()
		err := ns.fold(req.batch)
		sh.c.metrics.foldSeconds.ObserveSince(foldStart)
		if err != nil {
			ns.err = err
			return shardResp{err: err}
		}
		sh.c.metrics.events.Add(uint64(len(req.batch)))
		return shardResp{}

	case opFinishBulk:
		ns := sh.node(req.node, req.rank)
		ns.lastSeen = sh.c.opts.Now()
		if req.trunc {
			ns.builder.SetTruncated(true)
			// An empty flagged chunk records the truncation durably.
			sh.persistBulk(ns, store.FlagTruncated, nil)
		}
		return shardResp{}

	case opSnapshot:
		ids := make([]uint32, 0, len(sh.nodes))
		for id := range sh.nodes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		resp := shardResp{}
		for _, id := range ids {
			ns := sh.nodes[id]
			np, err := ns.builder.Snapshot()
			if err != nil {
				// A poisoned builder still has a last-good story to tell
				// via status; skip it in fleet profiles.
				continue
			}
			resp.profiles = append(resp.profiles, np)
		}
		return resp

	case opStatus:
		resp := shardResp{}
		for _, ns := range sh.nodes {
			st := NodeStatus{
				NodeID:         ns.id,
				Rank:           ns.rank,
				Events:         ns.builder.Events(),
				Segments:       ns.segments,
				DurationS:      ns.builder.Duration().Seconds(),
				LastSeen:       ns.lastSeen,
				ArchivedEvents: ns.archEvents,
			}
			if ns.err != nil {
				st.Err = ns.err.Error()
			}
			resp.statuses = append(resp.statuses, st)
		}
		return resp

	case opPolicyStatus:
		resp := shardResp{}
		for _, ns := range sh.nodes {
			if ns.policy != nil {
				resp.policies = append(resp.policies, ns.policyStatus())
			}
		}
		return resp

	case opCritPath:
		// One node's critical-path answer. Summary() is a fresh value and
		// Tracks() copies its segments, so the reply shares nothing with
		// worker-owned analyzer state. Queries never create nodes.
		ns, ok := sh.nodes[req.node]
		if !ok {
			return shardResp{err: fmt.Errorf("collect: unknown node %d", req.node)}
		}
		return shardResp{crit: ns.crit.Summary(), critTracks: ns.crit.Tracks(), critDur: ns.crit.Duration()}

	case opArchHeat:
		// Compacted history's contribution to one sensor's ranking. The
		// slices are startup-immutable (only replayArchive writes them), so
		// handing them across the reply is safe.
		resp := shardResp{}
		for _, ns := range sh.nodes {
			if req.sensor >= 0 && req.sensor < len(ns.archHeat) {
				resp.heat = append(resp.heat, ns.archHeat[req.sensor]...)
			}
		}
		return resp

	case opWindowHeat:
		return sh.handleWindowHeat(req)

	case opWindowProfile:
		return sh.handleWindowProfile(req)

	case opWindows:
		return sh.handleWindows(req)
	}
	return shardResp{err: fmt.Errorf("collect: unknown shard op %d", req.op)}
}

// Serve accepts ingest connections on ln until the collector is closed
// or the listener fails. Each connection is either a shipped chunk
// stream (hello magic) or a bulk trace upload (TPST magic).
func (c *Collector) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("collect: collector closed")
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
	br := bufio.NewReader(newCountingReader(conn, c.metrics.bytes))
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

// serveShipStream handles one shipper connection: resume handshake, then
// frames, each acked with the node's next expected sequence number.
// Control directives from the policy engine piggyback on the downstream
// channel right after the ack that triggered them; a fresh connection
// re-issues the node's current directive during the handshake, which is
// how control frames lost with a dead link are recovered.
func (c *Collector) serveShipStream(conn net.Conn, br *bufio.Reader) {
	h, err := readHelloTail(br)
	if err != nil {
		c.metrics.ingestErrors.Add(1)
		return
	}
	sh := c.shardFor(h.NodeID)
	resp := sh.call(shardReq{op: opResume, node: h.NodeID, rank: h.Rank})
	if err := writeAck(conn, resp.resume); err != nil {
		return
	}
	var sentRev uint64
	if !c.sendControl(conn, resp.ctl, &sentRev) {
		return
	}
	var frameBuf []byte
	for {
		seq, kind, payload, buf, err := readFrame(br, frameBuf)
		frameBuf = buf
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.metrics.ingestErrors.Add(1)
			}
			return
		}
		c.metrics.segments.Add(1)
		op := opChunk
		if kind == frameCoarse {
			op = opCoarse
		}
		resp := sh.call(shardReq{op: op, node: h.NodeID, rank: h.Rank, seq: seq, chunk: payload})
		if resp.dup {
			c.metrics.dedupDrops.Add(1)
		}
		if resp.err != nil {
			c.metrics.ingestErrors.Add(1)
		}
		if err := writeAck(conn, resp.resume); err != nil {
			return
		}
		if !c.sendControl(conn, resp.ctl, &sentRev) {
			return
		}
	}
}

// sendControl writes ctl down the connection when it advances the
// connection's last-sent revision; reports whether the link survived.
// Stale frames (a directive the connection already carried) are skipped,
// not errors — the shipper's own revision dedup would drop them anyway.
func (c *Collector) sendControl(conn net.Conn, ctl *ctlFrame, sentRev *uint64) bool {
	if ctl == nil || ctl.rev <= *sentRev {
		return true
	}
	if err := writeControl(conn, ctl.rev, ctl.payload); err != nil {
		return false
	}
	*sentRev = ctl.rev
	c.metrics.controlFramesSent.Add(1)
	return true
}

// serveBulk ingests one complete trace stream (the offline file format,
// v1 or v2) from the connection — `tempest-collectd -upload` and piped
// tempd output use this path. The per-connection scanner comes from a
// pool and is Reset onto the stream, so bulk ingest reuses decode
// buffers across connections instead of reallocating them.
func (c *Collector) serveBulk(conn net.Conn, br *bufio.Reader) {
	var sc *trace.Scanner
	if pooled := c.scanners.Get(); pooled != nil {
		sc = pooled.(*trace.Scanner)
		if err := sc.Reset(br); err != nil {
			c.metrics.ingestErrors.Add(1)
			c.scanners.Put(sc)
			return
		}
	} else {
		var err error
		sc, err = trace.NewScanner(br)
		if err != nil {
			c.metrics.ingestErrors.Add(1)
			return
		}
	}
	defer c.scanners.Put(sc)
	sh := c.shardFor(sc.NodeID())
	failed := false
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			c.metrics.ingestErrors.Add(1)
			return
		}
		c.metrics.segments.Add(1)
		// The worker call is synchronous, so handing it the scanner's
		// reused batch buffer is safe: the builder retains nothing.
		resp := sh.call(shardReq{op: opEvents, node: sc.NodeID(), rank: sc.Rank(), batch: batch, sym: sc.Sym()})
		if resp.err != nil {
			c.metrics.ingestErrors.Add(1)
			failed = true
			break
		}
	}
	if !failed {
		sh.call(shardReq{op: opFinishBulk, node: sc.NodeID(), rank: sc.Rank(), trunc: sc.Truncated()})
	}
}

// IngestTrace folds a whole in-memory trace into the collector through
// the same shard path as network ingest — the programmatic loader for
// tests and local files.
func (c *Collector) IngestTrace(tr *trace.Trace) error {
	if tr == nil {
		return errors.New("collect: nil trace")
	}
	sh := c.shardFor(tr.NodeID)
	// Re-encode through a chunk so symbol registration follows the same
	// dense-id path as shipped streams.
	payload, _, err := encodeChunk(tr.Events, tr.Sym, 0)
	if err != nil {
		return err
	}
	resp := sh.call(shardReq{op: opResume, node: tr.NodeID, rank: tr.Rank})
	c.metrics.segments.Add(1)
	resp = sh.call(shardReq{op: opChunk, node: tr.NodeID, rank: tr.Rank, seq: resp.resume, chunk: payload})
	if resp.err != nil {
		return resp.err
	}
	c.metrics.bytes.Add(uint64(len(payload)) + frameHdrLen)
	if tr.Truncated {
		sh.call(shardReq{op: opFinishBulk, node: tr.NodeID, rank: tr.Rank, trunc: true})
	}
	return nil
}

// Nodes lists every known node's ingest status, sorted by node ID.
func (c *Collector) Nodes() []NodeStatus {
	var out []NodeStatus
	for _, sh := range c.shards {
		out = append(out, sh.call(shardReq{op: opStatus}).statuses...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	if out == nil {
		out = []NodeStatus{}
	}
	return out
}

// Profile assembles the fleet-wide profile from a live snapshot of every
// node's builder, nodes sorted by ID — the online equivalent of
// parser.ParseAll over the same traces.
func (c *Collector) Profile() *parser.Profile {
	var nps []*parser.NodeProfile
	for _, sh := range c.shards {
		nps = append(nps, sh.call(shardReq{op: opSnapshot}).profiles...)
	}
	sort.Slice(nps, func(i, j int) bool { return nps[i].NodeID < nps[j].NodeID })
	p := &parser.Profile{Unit: c.opts.Unit}
	for _, np := range nps {
		p.Nodes = append(p.Nodes, *np)
	}
	return p
}

// NodeProfile snapshots one node's in-progress profile.
func (c *Collector) NodeProfile(id uint32) (*parser.NodeProfile, error) {
	resp := c.shardFor(id).call(shardReq{op: opSnapshot})
	for _, np := range resp.profiles {
		if np.NodeID == id {
			return np, nil
		}
	}
	return nil, fmt.Errorf("collect: unknown node %d", id)
}

// CritPath snapshots one node's streaming critical-path analysis: the
// serialization/wait summary, the bounded per-lane timeline tracks, and
// the analyzed duration. The snapshot is non-destructive — ingest keeps
// folding and later calls see strictly more history.
func (c *Collector) CritPath(id uint32) (*critpath.Summary, []critpath.Track, time.Duration, error) {
	resp := c.shardFor(id).call(shardReq{op: opCritPath, node: id})
	if resp.err != nil {
		return nil, nil, 0, resp.err
	}
	return resp.crit, resp.critTracks, resp.critDur, nil
}

// PolicyStatuses reports the adaptive-sampling policy state for every
// node the engine has touched, sorted by node ID — the /api/policy
// payload.
func (c *Collector) PolicyStatuses() []PolicyStatus {
	out := []PolicyStatus{}
	for _, sh := range c.shards {
		out = append(out, sh.call(shardReq{op: opPolicyStatus}).policies...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	return out
}

// archivedHeat collects every shard's compacted hot-spot contributions
// for one sensor.
func (c *Collector) archivedHeat(sensor int) []hotspot.FunctionHeat {
	var out []hotspot.FunctionHeat
	for _, sh := range c.shards {
		out = append(out, sh.call(shardReq{op: opArchHeat, sensor: sensor}).heat...)
	}
	return out
}

// Metrics exposes the collector's self-observability counters.
func (c *Collector) Metrics() *Metrics { return c.metrics }

// Close shuts the collector down: the ingest listener stops, open
// connections are torn down, and shard workers exit after draining
// in-flight requests. Close is idempotent.
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
	// Connection handlers exit once their conns die; only then is it
	// safe to close the shard queues they feed.
	c.connWait()
	c.callMu.Lock()
	c.down = true
	for _, sh := range c.shards {
		close(sh.work)
	}
	c.callMu.Unlock()
	c.wg.Wait()
	return nil
}

// connWait blocks until all connection handlers have returned. Shard
// workers are still live here, so handlers never block on a dead queue.
func (c *Collector) connWait() {
	for {
		c.mu.Lock()
		n := len(c.conns)
		c.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// countingReader tallies bytes read into an ingest byte counter.
type countingReader struct {
	r io.Reader
	n *introspect.Counter
}

func newCountingReader(r io.Reader, n *introspect.Counter) *countingReader {
	return &countingReader{r: r, n: n}
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(uint64(n))
	return n, err
}
