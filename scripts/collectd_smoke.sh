#!/usr/bin/env bash
# collectd_smoke.sh — end-to-end smoke test for the fleet collector.
#
# Builds tempest-collectd, starts it on ephemeral ports, ships the canned
# trace (cmd/tempest-collectd/testdata/smoke.tpst) through the bulk
# ingest path, then checks the HTTP surface:
#   * /api/hotspots?k=5 must match the committed golden response
#     (cmd/tempest-collectd/testdata/hotspots.golden)
#   * /api/hotspots?k=-5 must be rejected with 400
#   * /metrics must show non-zero ingest counters
#   * /api/nodes must list the node with no late_events, live and after
#     the restart (the field is omitted at zero: nothing arrived behind
#     the profile builder's fold boundary)
#   * /healthz must answer ok
#   * the opt-in debug server (-debug-addr) must answer /debug/vars and
#     /debug/introspect
#   * after a SIGTERM the durable store (-store-dir) must pass
#     -verify-store, and a restarted collector on the same directory must
#     replay the history and serve the identical hotspots golden
#   * the time-ranged surface (/api/windows/{node}, /api/series with
#     from/to from the replayed store, /api/hotspots?window= from the
#     replayed builders' granule marks) must agree with the live answers,
#     say what a window covers, and reject malformed ranges
#   * a memory-only collector (no -store-dir) must rank ?window= too, and
#     answer 503 for a ranged series
#
# Run `make collectd-smoke UPDATE_GOLDEN=1` after intentionally changing
# the hotspot computation or response shape to regenerate the golden.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
UPDATE_GOLDEN=${UPDATE_GOLDEN:-}

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    [ -n "$daemon_pid" ] && wait "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "==> building tempest-collectd"
$GO build -o "$workdir/tempest-collectd" ./cmd/tempest-collectd

echo "==> starting collector on ephemeral ports (durable store)"
"$workdir/tempest-collectd" -listen 127.0.0.1:0 -http 127.0.0.1:0 \
    -debug-addr 127.0.0.1:0 -store-dir "$workdir/store" \
    >"$workdir/addr" 2>"$workdir/collectd.log" &
daemon_pid=$!

# The daemon prints "ingest=HOST:PORT http=HOST:PORT debug=HOST:PORT"
# once bound.
for _ in $(seq 1 100); do
    [ -s "$workdir/addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "collectd died:"; cat "$workdir/collectd.log"; exit 1; }
    sleep 0.05
done
[ -s "$workdir/addr" ] || { echo "collectd never printed its addresses"; exit 1; }
read -r ingest_kv http_kv debug_kv <"$workdir/addr"
INGEST=${ingest_kv#ingest=}
HTTP=${http_kv#http=}
DEBUG=${debug_kv#debug=}
[ -n "$DEBUG" ] || { echo "collectd never printed its debug address"; exit 1; }
echo "    ingest=$INGEST http=$HTTP debug=$DEBUG"

echo "==> shipping canned trace"
"$workdir/tempest-collectd" -upload cmd/tempest-collectd/testdata/smoke.tpst -to "$INGEST"

echo "==> checking /healthz"
curl -fsS "http://$HTTP/healthz" | grep -qx ok

echo "==> checking /api/hotspots?k=5 against golden"
curl -fsS "http://$HTTP/api/hotspots?k=5" >"$workdir/hotspots.json"
golden=cmd/tempest-collectd/testdata/hotspots.golden
if [ -n "$UPDATE_GOLDEN" ]; then
    cp "$workdir/hotspots.json" "$golden"
    echo "    golden updated"
else
    diff -u "$golden" "$workdir/hotspots.json"
fi

echo "==> checking /api/hotspots?k=-5 is rejected"
code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$HTTP/api/hotspots?k=-5")
if [ "$code" != "400" ]; then
    echo "negative k returned HTTP $code, want 400"
    exit 1
fi
echo "    k=-5 -> 400"

echo "==> checking /metrics counters are live"
curl -fsS "http://$HTTP/metrics" >"$workdir/metrics"
for metric in tempest_collect_segments_total tempest_collect_events_total \
              tempest_collect_bytes_total tempest_collect_connections_total \
              tempest_collect_nodes; do
    val=$(awk -v m="$metric" '$1 == m { print $2 }' "$workdir/metrics")
    if [ -z "$val" ] || [ "$val" = "0" ]; then
        echo "metric $metric is missing or zero after ingest:"
        cat "$workdir/metrics"
        exit 1
    fi
    echo "    $metric=$val"
done

check_no_late_events() {
    curl -fsS "http://$HTTP/api/nodes" >"$workdir/nodes.json"
    grep -q '"node"' "$workdir/nodes.json" || {
        echo "/api/nodes lists no node:"
        cat "$workdir/nodes.json"
        exit 1
    }
    if grep -q '"late_events"' "$workdir/nodes.json"; then
        echo "/api/nodes reports late events for an in-order trace:"
        cat "$workdir/nodes.json"
        exit 1
    fi
    echo "    /api/nodes reports no late events"
}

echo "==> checking /api/nodes"
check_no_late_events

echo "==> checking debug surface"
curl -fsS "http://$DEBUG/debug/vars" >"$workdir/vars.json"
grep -q '"tempest"' "$workdir/vars.json" || {
    echo "/debug/vars missing the published tempest variable:"
    cat "$workdir/vars.json"
    exit 1
}
curl -fsS "http://$DEBUG/debug/introspect" >"$workdir/introspect"
for metric in tempest_collect_segments_total tempest_collect_late_events_total \
              tempest_collect_resident_spans; do
    grep -q "$metric" "$workdir/introspect" || {
        echo "/debug/introspect missing $metric:"
        cat "$workdir/introspect"
        exit 1
    }
done
echo "    /debug/vars and /debug/introspect OK"

echo "==> stopping collector (SIGTERM must flush the store)"
kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

echo "==> verifying the store offline"
"$workdir/tempest-collectd" -verify-store -store-dir "$workdir/store"

echo "==> restarting collector: durable history must survive"
"$workdir/tempest-collectd" -listen 127.0.0.1:0 -http 127.0.0.1:0 \
    -store-dir "$workdir/store" \
    >"$workdir/addr2" 2>>"$workdir/collectd.log" &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -s "$workdir/addr2" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "restarted collectd died:"; cat "$workdir/collectd.log"; exit 1; }
    sleep 0.05
done
[ -s "$workdir/addr2" ] || { echo "restarted collectd never printed its addresses"; exit 1; }
read -r _ http_kv _ <"$workdir/addr2"
HTTP=${http_kv#http=}
echo "    http=$HTTP"

curl -fsS "http://$HTTP/healthz" | grep -qx ok

# No upload this time: the replayed store alone must reproduce the
# golden fleet answer.
curl -fsS "http://$HTTP/api/hotspots?k=5" >"$workdir/hotspots-replayed.json"
diff -u "$golden" "$workdir/hotspots-replayed.json"
echo "    replayed history matches golden"
check_no_late_events

echo "==> checking time-ranged queries against the replayed store"
curl -fsS "http://$HTTP/api/windows/1" >"$workdir/windows.json"
grep -q '"durable": true' "$workdir/windows.json" || {
    echo "/api/windows/1 does not report a durable store:"
    cat "$workdir/windows.json"
    exit 1
}
grep -q '"windows"' "$workdir/windows.json" || {
    echo "/api/windows/1 lists no windows:"
    cat "$workdir/windows.json"
    exit 1
}
echo "    /api/windows/1 lists durable history"

# A range covering all of history must reproduce the live series rows
# exactly; only the leading # comments (window bounds) may differ.
wide="from=1970-01-01T00:00:00Z&to=2100-01-01T00:00:00Z"
curl -fsS "http://$HTTP/api/series/1" | grep -v '^#' >"$workdir/series-live.csv"
curl -fsS "http://$HTTP/api/series/1?$wide" | grep -v '^#' >"$workdir/series-ranged.csv"
diff -u "$workdir/series-live.csv" "$workdir/series-ranged.csv"
echo "    full-range series matches live series"

# A window wide enough to cover everything must reproduce the hotspot
# golden byte for byte, modulo the echoed "window" field and the bounds
# ("window_from", "window_to") the answer says it covers.
curl -fsS "http://$HTTP/api/hotspots?k=5&window=876000h" >"$workdir/hotspots-window-full.json"
for field in '"window": "876000h0m0s"' '"window_from": "' '"window_to": "'; do
    grep -q "$field" "$workdir/hotspots-window-full.json" || {
        echo "windowed hotspots do not carry $field:"
        cat "$workdir/hotspots-window-full.json"
        exit 1
    }
done
grep -v '"window' "$workdir/hotspots-window-full.json" >"$workdir/hotspots-window.json"
grep -v '"window' "$golden" >"$workdir/hotspots-golden-nowindow.json"
diff -u "$workdir/hotspots-golden-nowindow.json" "$workdir/hotspots-window.json"
echo "    windowed hotspots match golden"

echo "==> checking malformed ranges are rejected"
code=$(curl -sS -o /dev/null -w '%{http_code}' \
    "http://$HTTP/api/series/1?from=2100-01-01T00:00:00Z&to=1970-01-01T00:00:00Z")
if [ "$code" != "400" ]; then
    echo "reversed range returned HTTP $code, want 400"
    exit 1
fi
echo "    reversed range -> 400"
code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$HTTP/api/hotspots?window=nope")
if [ "$code" != "400" ]; then
    echo "bad window returned HTTP $code, want 400"
    exit 1
fi
echo "    window=nope -> 400"

echo "==> restarting collector memory-only: rankings need no store"
kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
"$workdir/tempest-collectd" -listen 127.0.0.1:0 -http 127.0.0.1:0 \
    >"$workdir/addr3" 2>>"$workdir/collectd.log" &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -s "$workdir/addr3" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "memory-only collectd died:"; cat "$workdir/collectd.log"; exit 1; }
    sleep 0.05
done
[ -s "$workdir/addr3" ] || { echo "memory-only collectd never printed its addresses"; exit 1; }
read -r ingest_kv http_kv _ <"$workdir/addr3"
INGEST=${ingest_kv#ingest=}
HTTP=${http_kv#http=}
"$workdir/tempest-collectd" -upload cmd/tempest-collectd/testdata/smoke.tpst -to "$INGEST"
curl -fsS "http://$HTTP/api/hotspots?k=5&window=1h" | grep -v '"window' >"$workdir/hotspots-window-mem.json"
diff -u "$workdir/hotspots-golden-nowindow.json" "$workdir/hotspots-window-mem.json"
echo "    memory-only windowed hotspots match golden"
code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$HTTP/api/series/1?$wide")
if [ "$code" != "503" ]; then
    echo "memory-only ranged series returned HTTP $code, want 503"
    exit 1
fi
echo "    memory-only ranged series -> 503"

echo "==> collectd smoke OK"
