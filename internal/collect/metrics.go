package collect

import (
	"fmt"
	"io"

	"tempest/internal/introspect"
)

// Metrics is the collector's self-observability, backed by two
// introspect registries:
//
//   - reg holds the public /metrics families, registered in the exact
//     order the original hand-rolled exposition printed them, so the
//     Prometheus text output is byte-compatible with earlier releases
//     (the golden tests pin it); and
//   - debug holds the finer-grained instrumentation added later —
//     fold latency, response encode failures, series stream
//     aborts — exposed only on the opt-in debug surfaces
//     (/debug/introspect, /debug/vars) so the public contract never
//     grows by accident.
//
// All fields are monotonic counters except the nodes gauge and the
// per-shard queue depths (sampled live at render time).
type Metrics struct {
	reg   *introspect.Registry
	debug *introspect.Registry

	segments     *introspect.Counter // frames + bulk event segments accepted off the wire
	events       *introspect.Counter // events folded into builders
	bytes        *introspect.Counter // ingest bytes read off connections
	dedupDrops   *introspect.Counter // duplicate chunks dropped by sequence cursor
	ingestErrors *introspect.Counter // malformed frames, stream gaps, builder poisonings
	connections  *introspect.Counter // ingest connections accepted
	nodes        *introspect.Counter // distinct nodes ever seen (gauge, grows only)

	shardSegments []*introspect.Counter // segments processed per shard

	// Debug-surface metrics (not on /metrics).
	foldSeconds   *introspect.Distribution // the single fold pass (builder + critpath) per segment
	encodeErrors  *introspect.Counter      // JSON response encode/write failures
	streamErrors  *introspect.Counter      // mid-stream response failures (aborted connections)
	decodeSeconds *introspect.Distribution // chunk decode latency
	lateEvents    *introspect.Counter      // events stamped before their builder's fold boundary
	residentSpans *introspect.Gauge        // spans the live builders hold in memory
	granuleMarks  *introspect.Gauge        // builder marks held, one per node per granule it committed in and left

	storeDegrades       *introspect.Counter // shard falls to memory-only ingest
	storeDegradedShards *introspect.Gauge   // shards currently memory-only (also drives /healthz)

	// Ranged series path (debug surface only).
	windowQueries       *introspect.Counter      // ranged series decodes requested
	windowCacheHits     *introspect.Counter      // decodes served from the per-shard LRU
	windowDecodeSeconds *introspect.Distribution // latency of cache-miss decodes

	// Adaptive-sampling control plane (debug surface only).
	coarseSegments    *introspect.Counter // coarse bucket reports accepted off the wire
	coarseErrors      *introspect.Counter // coarse reports that failed to decode (acked and dropped)
	policyRounds      *introspect.Counter // policy evaluation rounds run across all nodes
	policyDirectives  *introspect.Counter // directives issued (instrumentation set changed)
	policyThrottles   *introspect.Counter // rounds where the event budget halved the detail allowance
	policySeeds       *introspect.Counter // nodes cold-started from static priors
	controlFramesSent *introspect.Counter // control frames written down ship connections
}

func newMetrics(shards int) *Metrics {
	r := introspect.New()
	m := &Metrics{reg: r, debug: introspect.New()}
	m.segments = r.Counter("tempest_collect_segments_total", "Trace segments (shipped chunks and bulk batches) ingested.")
	m.events = r.Counter("tempest_collect_events_total", "Trace events folded into per-node profiles.")
	m.bytes = r.Counter("tempest_collect_bytes_total", "Bytes read from ingest connections.")
	m.dedupDrops = r.Counter("tempest_collect_dedup_dropped_total", "Duplicate chunks dropped by the per-node sequence cursor.")
	m.ingestErrors = r.Counter("tempest_collect_ingest_errors_total", "Malformed frames, stream gaps and poisoned-node ingest failures.")
	m.connections = r.Counter("tempest_collect_connections_total", "Ingest connections accepted.")
	m.nodes = r.CounterGauge("tempest_collect_nodes", "Distinct nodes the collector has seen.")
	m.shardSegments = make([]*introspect.Counter, shards)
	for i := range m.shardSegments {
		m.shardSegments[i] = r.CounterL("tempest_collect_shard_segments_total",
			fmt.Sprintf("shard=%q", fmt.Sprint(i)), "Segments processed per ingest shard.")
	}
	m.foldSeconds = m.debug.Distribution("tempest_collect_fold_seconds", "Profile + critical-path fold latency per ingested segment.")
	m.decodeSeconds = m.debug.Distribution("tempest_collect_decode_seconds", "Chunk decode latency per shipped frame.")
	m.lateEvents = m.debug.Counter("tempest_collect_late_events_total", "Enters, exits and samples that arrived more than two batches out of order (attributed best effort).")
	m.residentSpans = m.debug.Gauge("tempest_collect_resident_spans", "Function spans the live profile builders hold in memory.")
	m.granuleMarks = m.debug.Gauge("tempest_collect_granule_marks", "Builder marks the nodes hold: one per node per granule, the only collector state that grows with uptime.")
	m.encodeErrors = m.debug.Counter("tempest_collect_response_encode_errors_total", "JSON API responses whose encode or write failed.")
	m.streamErrors = m.debug.Counter("tempest_collect_stream_abort_total", "Streaming API responses aborted after the first byte.")
	m.storeDegrades = m.debug.Counter("tempest_collect_store_degrade_events_total", "Shards that fell from durable to memory-only ingest.")
	m.storeDegradedShards = m.debug.Gauge("tempest_collect_store_degraded_shards", "Shards currently ingesting memory-only after a store failure.")
	m.windowQueries = m.debug.Counter("tempest_collect_window_queries_total", "Time-ranged historical window decodes requested.")
	m.windowCacheHits = m.debug.Counter("tempest_collect_window_cache_hits_total", "Historical window decodes served from the per-shard LRU cache.")
	m.windowDecodeSeconds = m.debug.Distribution("tempest_collect_window_decode_seconds", "Latency of cache-miss historical window decodes.")
	m.coarseSegments = m.debug.Counter("tempest_collect_coarse_segments_total", "Coarse instrumentation bucket reports accepted off the wire.")
	m.coarseErrors = m.debug.Counter("tempest_collect_coarse_decode_errors_total", "Coarse reports that failed to decode (acknowledged and dropped).")
	m.policyRounds = m.debug.Counter("tempest_collect_policy_rounds_total", "Adaptive-sampling policy evaluation rounds.")
	m.policyDirectives = m.debug.Counter("tempest_collect_policy_directives_total", "Policy directives issued (per-node instrumentation set changed).")
	m.policyThrottles = m.debug.Counter("tempest_collect_policy_throttles_total", "Policy rounds where the event budget halved the detail allowance.")
	m.policySeeds = m.debug.Counter("tempest_collect_policy_seeds_total", "Nodes whose policy was cold-started from static priors.")
	m.controlFramesSent = m.debug.Counter("tempest_collect_control_frames_sent_total", "Control frames written down ship connections.")
	return m
}

// Segments reports total segments ingested.
func (m *Metrics) Segments() uint64 { return m.segments.Value() }

// Events reports total events folded into builders.
func (m *Metrics) Events() uint64 { return m.events.Value() }

// Bytes reports total ingest bytes read.
func (m *Metrics) Bytes() uint64 { return m.bytes.Value() }

// DedupDrops reports duplicate chunks dropped after reconnect resends.
func (m *Metrics) DedupDrops() uint64 { return m.dedupDrops.Value() }

// IngestErrors reports malformed or unprocessable ingest data.
func (m *Metrics) IngestErrors() uint64 { return m.ingestErrors.Value() }

// EncodeErrors reports JSON API responses whose encode or write failed.
func (m *Metrics) EncodeErrors() uint64 { return m.encodeErrors.Value() }

// StreamAborts reports streaming responses aborted mid-body.
func (m *Metrics) StreamAborts() uint64 { return m.streamErrors.Value() }

// WriteMetrics renders the collector's public self-observability in
// Prometheus text exposition format: ingest volume (segments, events,
// bytes), reliability counters (dedup drops, errors), fleet size, and
// per-shard throughput and instantaneous queue depth (lag). The output
// is the public registry's exposition; finer-grained debug metrics live
// on /debug/introspect.
func (c *Collector) WriteMetrics(w io.Writer) error {
	return c.metrics.reg.WritePrometheus(w)
}

// IntrospectRegistries exposes the collector's metric registries, public
// first — the daemon mounts these on its -debug-addr surfaces.
func (c *Collector) IntrospectRegistries() []*introspect.Registry {
	return []*introspect.Registry{c.metrics.reg, c.metrics.debug}
}
