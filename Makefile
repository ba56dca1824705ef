GO ?= go

.PHONY: all build fmt vet vet-cross tempest-vet test race chaos bench bench-paper bench-validate bench-smoke fuzz-smoke collectd-smoke loc clean

all: fmt vet vet-cross tempest-vet build test bench-paper bench-validate

# Nothing else checks formatting; any file gofmt would rewrite fails.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# instrument finds a goroutine's lane through per-architecture assembly
# (amd64, arm64) with a portable fallback for everything else, and
# vclock reads the cycle counter only on amd64. Vet the second assembly
# file and the builds without assembly — instrument's fallback and the
# real clock on the monotonic OS clock, with the lanes it stamps — none
# of which an amd64 host compiles otherwise.
vet-cross:
	GOARCH=arm64 $(GO) vet ./instrument/ ./internal/vclock/ ./internal/trace/
	GOARCH=riscv64 $(GO) vet ./instrument/ ./internal/vclock/ ./internal/trace/

# Project-specific invariant checks (internal/analysis passes): Enter/Exit
# pairing, wall-clock bans in virtual-time packages, lock annotations,
# wire-frame seq/crc discipline, NaN comparisons, plus the program-wide
# passes — mutex acquisition-order cycles (lockorder) and goroutines with
# no termination path (goroleak). Must exit 0.
tempest-vet:
	$(GO) run ./cmd/tempest-vet ./...

test:
	$(GO) test -shuffle=on ./...

# Race-detector pass over the whole module. Everything here runs real
# concurrency somewhere (tracer lanes, tempd, MPI ranks, parser pool,
# collector, auto-instrument hooks), so nothing is hand-picked. The
# instrument tests run ten more times: a detail call finds its lane twice,
# and a lane handed to a goroutine on a recycled g must carry its
# happens-before edge with it.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./instrument/

# Seeded end-to-end fault-injection scenario (sensor dropout + torn trace
# tail), plus the collector's chaos tests over flaky links, the
# durable-store crash drills (a crash at every byte an append → roll →
# checkpoint → append sequence writes; SIGKILL a real collectd
# mid-ingest, restart, assert nothing acked was lost), a restart whose
# shards recover side by side over a torn tail and an unopenable shard
# (under the race detector, ten times), and the adaptive control-loop
# drills
# (seeded link chaos on the control channel; closed-loop promotion at an
# event density that overflows the lane buffer under full detail).
chaos:
	$(GO) test -run 'TestChaos|TestAdaptiveSampling' -v .
	$(GO) test -run TestChaos -v ./internal/collect/
	$(GO) test -race -count=10 -run TestRestartRecoversEveryShard ./internal/collect/
	$(GO) test -run 'TestSegmentedSalvage|TestSegmentedChecksum' -v ./internal/trace/
	$(GO) test -run 'TestStoreCrashPoints' -v ./internal/store/
	$(GO) test -run 'TestDaemonStoreChaosSIGKILL' -v ./cmd/tempest-collectd/

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Every paper benchmark (E1–E10, the ablations, the suite signatures)
# once: each asserts its result's shape with b.Fatalf, so a change that
# breaks a reproduced figure fails here (~3 s).
bench-paper:
	$(GO) test -run '^$$' -bench . -benchtime=1x .

# The pipeline benchmark at 1/50 scale, untraced and traced, with its
# metric set checked against BENCHMARK.json (~20 s). `./...` skips
# underscore directories, so this is the only target that compiles
# _bench/ against the packages it imports.
bench-validate:
	$(GO) run ./_bench -validate

# One-iteration pass over the streaming-pipeline benchmarks: compiles and
# executes every benchmark body (batch vs stream allocation profile,
# sequential vs parallel ParseAll, the fleet-shaped interleaved fold,
# folded vs unfolded builders at 1M events and at 10⁴ symbols with
# 16-event batches, critical-path sweep, chunk decode, all-time and
# windowed rankings after 1× and 8× the events, the per-mode
# instrument.Trace hooks, the interprocedural analysis over this
# repository)
# without waiting for stable timings — the CI guard that the pipeline
# still runs end to end at 1M events.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./instrument/
	$(GO) test -run '^$$' -bench 'Pipeline|ParseAll|BuilderAddInterleaved|BuilderFold' -benchtime=1x -benchmem ./internal/parser/
	$(GO) test -run '^$$' -bench 'CritPath' -benchtime=1x -benchmem ./internal/critpath/
	$(GO) test -run '^$$' -bench 'DecodeChunk|CollectorHotspots|WindowHotspots' -benchtime=1x -benchmem ./internal/collect/
	$(GO) test -run '^$$' -bench 'Repo(Load|Analysis)' -benchtime=1x -benchmem ./internal/analysis/costmodel/

# Run every fuzz target once over its checked-in seed corpus (no open-
# ended fuzzing): codec, streaming scanner, the profile builder's fold
# (never panics; folded == unfolded whenever nothing was late, on the
# whole profile and on the two ranges a mark cuts it into), the
# collector's ship-mode frame decoder, the coarse-report and control
# decoders (never panic; decoding is a fixed point), the slice-cursor
# segment and chunk decoders against the reader-based ones they
# replaced, the instrumentation-plan JSON decoder (never panics; decoding
# is a fixed point), the
# checkpoint-archive decoder (never panics; re-encoding is a fixed
# point), the durable store's crash/tamper recovery, and the
# critical-path analyzer (never panics; stream==batch; its flat timeline
# tracks == the named reference at caps 2, 3, 4 and 512), and the node
# fold (one shared core == two standalone folds, stopping where the
# Builder does; agrees with the Builder's stack discipline on accepted
# streams).
fuzz-smoke:
	$(GO) test -run 'Fuzz' ./internal/trace/ ./internal/parser/ ./internal/collect/ ./internal/store/ ./internal/critpath/ ./internal/nodefold/ ./internal/analysis/costmodel/

# End-to-end fleet-collector smoke: start tempest-collectd on ephemeral
# ports, ship the canned trace, and diff /api/hotspots against its
# golden (pass UPDATE_GOLDEN=1 to regenerate after intentional changes).
collectd-smoke:
	UPDATE_GOLDEN=$(UPDATE_GOLDEN) ./scripts/collectd_smoke.sh

# Non-test .go lines per package, then the non-test and test totals
# (ROADMAP: every PR quotes these numbers, parent → change).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './_bench/*' ! -path '*/testdata/*' | xargs wc -l | awk '$$2 != "total" { sub(/^\.\//, "", $$2); d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1 } END { for (d in n) printf "%6d %s\n", n[d], d }' | sort -k2
	@find . -name '*.go' ! -name '*_test.go' ! -path './_bench/*' ! -path '*/testdata/*' -exec cat {} + | wc -l | awk '{ printf "%6d total non-test\n", $$1 }'
	@find . -name '*_test.go' ! -path './_bench/*' ! -path '*/testdata/*' -exec cat {} + | wc -l | awk '{ printf "%6d total test\n", $$1 }'

clean:
	$(GO) clean ./...
