// Package store is the collector's durable profile store: the persistence
// layer behind the ingest shards that makes acknowledged fleet history
// survive a collector crash.
//
// The collector's exactly-once wire contract (per-node sequence cursors,
// resume-on-reconnect) is only as strong as the collector's memory: if an
// acked chunk lives nowhere but a parser.Builder, a SIGKILL erases data
// the shipper was told is safe and has already dropped. store closes that
// hole. Each durable shard owns one Disk; every accepted batch is
// appended — and fsynced — before the shard acks it, and on startup the
// collector replays the store back into warm Builders. A shard without a
// Disk (durability off, or degraded after its disk failed) persists
// nothing.
//
// Disk appends batches to time-windowed segment files framed with the
// checksummed self-delimiting trace-v2 segment frame
// (trace.WriteSegmentFrame), hash-chained record to record:
//
//	segment file  "%09d.seg":
//	  header  magic uint32 'TPSS' LE, version uint16 = 1,
//	          index uvarint, chainStart [32]byte
//	  record  trace segment frame, kind 'B', payload = body ‖ chain
//	  body    node, rank, seq uvarint; flags byte; wallNano uvarint;
//	          payloadLen uvarint; payload (opaque chunk bytes)
//	  chain   SHA-256(prevChain ‖ body) — prevChain is the previous
//	          record's chain, or the header's chainStart for the first
//
//	checkpoint file  "%09d.ckpt" (written by retention compaction):
//	  header  as above, chainStart = zero
//	  record  kind 'C', body = coveredIndex uvarint,
//	          prevFinal [32]byte, archiveLen uvarint, archive (opaque)
//
// The chain makes history tamper-evident end to end: flipping any byte of
// any committed record breaks either its CRC or the chain continuity of
// everything after it, and VerifyDir walks the whole store proving both.
// A checkpoint embeds the final chain value of the raw prefix it replaced
// (prevFinal), so continuity survives compaction.
//
// Crash recovery mirrors trace.ReadTrace salvage: the *last* segment is
// the only place a crash can tear, so its torn tail is truncated away (or,
// torn inside its header, the file removed) and everything before it is
// kept. Tears or chain breaks anywhere else are corruption, reported
// loudly and skipped. Open and VerifyDir read a directory through one
// survey, so they agree on which is which.
//
// Retention: segments roll on a time window; once every batch in a closed
// segment is older than Retention, the segment prefix is folded through
// the caller-supplied Compactor (the collector folds raw chunks into
// per-node profiles via the associative hotspot merge) into the
// checkpoint's archive blob, and the raw files are deleted — temp-file,
// fsync, rename, then delete, so a crash mid-compaction loses nothing.
package store

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"
)

// Batch is one durable unit: an accepted ingest batch, payload opaque to
// the store (the collector's self-contained chunk encoding).
type Batch struct {
	Node uint32
	Rank uint32
	// Seq is the shipper sequence number for ship-mode chunks; bulk
	// uploads (FlagBulk) carry a private per-node counter instead and
	// never advance the resume cursor on replay.
	Seq   uint64
	Flags uint8
	// WallNano is the collector's wall-clock time at commit, the
	// retention clock for compaction.
	WallNano int64
	// Payload is the chunk bytes. Valid only until the Append returns or
	// the Replay callback does; the store copies what it keeps.
	Payload []byte
}

// Batch flags.
const (
	// FlagBulk marks a batch from the bulk-upload path: replay folds it
	// into the node's profile but must not advance the ship resume cursor.
	FlagBulk uint8 = 1 << iota
	// FlagTruncated marks a bulk stream that ended in a salvaged torn
	// tail (the trace Scanner's Truncated verdict).
	FlagTruncated
	// FlagCoarse marks a coarse instrumentation bucket report from the
	// adaptive-sampling path. It shares the ship sequence space with
	// ordinary chunks (replay advances the resume cursor) but its
	// payload is a coarse report, not a chunk — replay feeds it to the
	// policy engine instead of the profile builder.
	FlagCoarse
	// FlagPolicy marks a persisted policy directive (Seq carries the
	// policy revision, not a ship sequence number): replay restores the
	// node's last issued instrumentation set so a restarted collector
	// re-issues a consistent policy instead of flapping from scratch.
	FlagPolicy
)

// Compactor folds batches that have aged out of retention, together with
// the previous archive blob (nil the first time), into a new archive
// blob. The blob is opaque to the store; the collector's implementation
// keeps per-node folded profiles mergeable by the associative hot-spot
// path. A Compactor must be deterministic and must not retain the batch
// payloads.
type Compactor func(prevArchive []byte, batches []Batch) ([]byte, error)

// Options tunes a Disk store. The zero value selects the defaults noted
// per field.
type Options struct {
	// Window is how long one segment file stays active before rolling
	// (default 1h). Shorter windows mean finer-grained retention.
	Window time.Duration
	// Retention is how long raw batches are kept before compaction folds
	// them into the checkpoint archive (0 = keep raw forever, never
	// compact).
	Retention time.Duration
	// SyncEvery fsyncs after every Nth append (default 1: every append is
	// durable before it is acked — the ack-after-commit contract).
	// Larger values trade the tail of a crash for throughput.
	SyncEvery int
	// Compact folds aged-out batches into the archive blob; nil disables
	// compaction even when Retention is set.
	Compact Compactor
	// Metrics receives store instrumentation (nil = discarded).
	Metrics *Metrics
	// Now overrides the clock (default time.Now) — injectable for
	// deterministic window/retention tests.
	Now func() time.Time
	// Logger receives recovery and compaction warnings. Default:
	// slog.Default().
	Logger *slog.Logger
	// WrapWriter, when set, wraps every segment file writer — the fault
	// injection seam for exercising mid-write failures in tests.
	WrapWriter func(io.Writer) io.Writer
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = time.Hour
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
	}
	if o.Metrics == nil {
		o.Metrics = discardMetrics()
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// ShardDirName names shard i's subdirectory under a store root — shared
// by the collector and VerifyDir so they always agree on layout.
func ShardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// CheckDir verifies that dir can host a store: it must be creatable and
// writable. The daemon calls this at startup so a mistyped -store-dir is
// a hard error instead of a silently degraded collector.
func CheckDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	probe := filepath.Join(dir, ".probe.tmp")
	f, err := os.Create(probe)
	if err != nil {
		return fmt.Errorf("store: dir not writable: %w", err)
	}
	f.Close()
	return os.Remove(probe)
}
