GO ?= go

.PHONY: all build fmt vet vet-cross tempest-vet test race chaos bench bench-validate bench-instrument bench-critpath bench-analysis bench-smoke fuzz-smoke collectd-smoke loc clean

all: fmt vet vet-cross tempest-vet build test bench-validate

# Nothing else checks formatting; any file gofmt would rewrite fails.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# instrument finds a goroutine's lane through per-architecture assembly
# (amd64, arm64) with a portable fallback for everything else. Vet the
# second assembly file and the no-assembly build, neither of which an
# amd64 host compiles otherwise.
vet-cross:
	GOARCH=arm64 $(GO) vet ./instrument/
	GOARCH=riscv64 $(GO) vet ./instrument/

# Project-specific invariant checks (internal/analysis passes): Enter/Exit
# pairing, wall-clock bans in virtual-time packages, lock annotations,
# wire-frame seq/crc discipline, NaN comparisons, plus the program-wide
# passes — mutex acquisition-order cycles (lockorder) and goroutines with
# no termination path (goroleak). Must exit 0.
tempest-vet:
	$(GO) run ./cmd/tempest-vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the whole module. Everything here runs real
# concurrency somewhere (tracer lanes, tempd, transports, parser pool,
# collector, auto-instrument hooks), so nothing is hand-picked.
race:
	$(GO) test -race ./...

# Seeded end-to-end fault-injection scenario (sensor dropout + torn trace
# tail + flaky TCP link), plus the per-package chaos tests, the
# durable-store crash drills (a crash at every byte an append → roll →
# checkpoint → append sequence writes; SIGKILL a real collectd
# mid-ingest, restart, assert nothing acked was lost), and the adaptive
# control-loop drills
# (seeded link chaos on the control channel; closed-loop promotion at an
# event density that overflows the lane buffer under full detail).
chaos:
	$(GO) test -run 'TestChaos|TestAdaptiveSampling' -v .
	$(GO) test -run TestChaos -v ./internal/collect/
	$(GO) test -run 'TestTCPChaos|TestTCPRank' -v ./internal/mpi/
	$(GO) test -run 'TestSegmentedSalvage|TestSegmentedChecksum' -v ./internal/trace/
	$(GO) test -run 'TestStoreCrashPoints' -v ./internal/store/
	$(GO) test -run 'TestDaemonStoreChaosSIGKILL' -v ./cmd/tempest-collectd/

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# The pipeline benchmark at 1/50 scale, untraced and traced, with its
# metric set checked against BENCHMARK.json (~20 s). `./...` skips
# underscore directories, so this is the only target that compiles
# _bench/ against the packages it imports.
bench-validate:
	$(GO) run ./_bench -validate

# Per-call instrumentation cost in each sampling mode, written to
# BENCH_instrument.json (the committed baseline). Re-run and commit when
# touching instrument.Trace's fast paths; the inert cost must not move.
bench-instrument:
	./scripts/bench/instrument_bench.sh

# Critical-path analyzer throughput over a 1M-event stream (with and
# without timeline tracks), written to BENCH_critpath.json (the committed
# baseline). Re-run and commit when touching internal/critpath's sweep.
bench-critpath:
	./scripts/bench/critpath_bench.sh

# Interprocedural analysis cost over this repository (loader vs
# callgraph+costmodel), written to BENCH_analysis.json (the committed
# baseline). Re-run and commit when touching internal/analysis/callgraph
# or internal/analysis/costmodel.
bench-analysis:
	./scripts/bench/analysis_bench.sh

# One-iteration pass over the streaming-pipeline benchmarks: compiles and
# executes every benchmark body (batch vs stream allocation profile,
# sequential vs parallel ParseAll, the fleet-shaped interleaved fold,
# folded vs unfolded builders at 1M events and at 10⁴ symbols with
# 16-event batches, critical-path sweep, chunk decode, all-time and
# windowed rankings after 1× and 8× the events, the per-mode
# instrument.Trace hooks)
# without waiting for stable timings — the CI guard that the pipeline
# still runs end to end at 1M events.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./instrument/
	$(GO) test -run '^$$' -bench 'Pipeline|ParseAll|BuilderAddInterleaved|BuilderFold' -benchtime=1x -benchmem ./internal/parser/
	$(GO) test -run '^$$' -bench 'CritPath' -benchtime=1x -benchmem ./internal/critpath/
	$(GO) test -run '^$$' -bench 'DecodeChunk|CollectorHotspots|WindowHotspots' -benchtime=1x -benchmem ./internal/collect/

# Run every fuzz target once over its checked-in seed corpus (no open-
# ended fuzzing): codec, streaming scanner, the profile builder's fold
# (never panics; folded == unfolded whenever nothing was late, on the
# whole profile and on the two ranges a mark cuts it into), the
# collector's ship-mode frame decoder, the slice-cursor segment and chunk
# decoders against the reader-based ones they replaced, the
# checkpoint-archive decoder (never panics; re-encoding is a fixed
# point), the durable store's crash/tamper recovery, and the
# critical-path analyzer (never panics; stream==batch; agrees with the
# Builder's stack discipline on accepted streams; one shared core == two
# standalone folds).
fuzz-smoke:
	$(GO) test -run 'Fuzz' ./internal/trace/ ./internal/parser/ ./internal/collect/ ./internal/store/ ./internal/critpath/

# End-to-end fleet-collector smoke: start tempest-collectd on ephemeral
# ports, ship the canned trace, and diff /api/hotspots against its
# golden (pass UPDATE_GOLDEN=1 to regenerate after intentional changes).
collectd-smoke:
	UPDATE_GOLDEN=$(UPDATE_GOLDEN) ./scripts/collectd_smoke.sh

# Non-test .go lines per package (ROADMAP: every PR quotes this number).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './_bench/*' ! -path '*/testdata/*' | xargs wc -l | awk '$$2 != "total" { sub(/^\.\//, "", $$2); d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1 } END { for (d in n) printf "%6d %s\n", n[d], d }' | sort -k2

clean:
	$(GO) clean ./...
