GO ?= go

.PHONY: test sidperf-test sidperf-gates bench race vet fmt baseline bench-check obs replay adversarial serve loadgen serve-smoke trace-smoke grid-smoke grid-baseline

test:
	$(GO) build ./... && $(GO) test ./...

# The benchmark harness is a nested module (sidperf/go.mod), so the root
# `go test ./...` never builds it; vet and test it against this tree.
sidperf-test:
	$(GO) -C sidperf vet ./...
	$(GO) -C sidperf test ./...

# The benchmark's correctness gates on the workloads whose gates are pure
# functions of their inputs (sidperf/README.md). serve_open is left out: its
# gate needs every chunk accepted at a fixed open-loop rate, so a slow runner
# fails it on capacity rather than correctness; serve-smoke covers the wire.
sidperf-gates:
	bash sidperf/run.sh --workload grid_100x100 --trace 0 --seed 1
	bash sidperf/run.sh --workload replay_fleet --trace 0 --seed 1 --seconds 5

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Race-checks the worker pool and everything it fans out into; run after
# touching the parallel pipeline (see docs/PERFORMANCE.md). internal/sid
# alone takes >10 min under -race on a single-core host, hence the default
# timeout. CI shards this target per package group (see .github/workflows/
# ci.yml): override RACE_PKGS to run one shard and RACE_TIMEOUT to bound it.
RACE_PKGS ?= ./internal/...
RACE_TIMEOUT ?= 25m
race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) $(RACE_PKGS)

vet:
	$(GO) vet ./...

# Fails (listing the files) if anything is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Record→replay smoke: record the single-10kn golden scenario into per-node
# SIDTRACE files, replay them through the detection pipeline, and require the
# result to be bit-identical to the originating simulation
# (see docs/STREAMING.md).
REPLAY_TMP := $(shell mktemp -d)
replay:
	$(GO) run ./cmd/sidtrace record -scenario single-10kn -dir $(REPLAY_TMP)
	$(GO) run ./cmd/sidtrace replay -dir $(REPLAY_TMP) -verify
	@rm -rf $(REPLAY_TMP)

# Paired-seed byzantine sweep behind docs/RESILIENCE.md's threat-model
# table: detection per compromised-node fraction, undefended vs defended
# arms on identical seeds. The adversarial golden scenarios themselves ride
# the regular test target (TestAdversarialGoldenCorpus).
adversarial:
	$(GO) run ./cmd/sidbench -exp adversarial

# Regenerates the machine-readable perf baseline (BENCH_baseline.json).
# Pinned to GOMAXPROCS=2 so the Workers fan-out is exercised and recorded
# even on single-core hosts; see docs/PERFORMANCE.md for the methodology.
baseline:
	$(GO) run ./cmd/sidbench -bench -gomaxprocs 2

# Smoke-checks the committed baseline without re-measuring: fails if
# BENCH_baseline.json is missing, was recorded at GOMAXPROCS <= 1, or lacks
# the per-stage breakdown the synthesis perf target is pinned to.
bench-check:
	$(GO) run ./cmd/sidbench -check

# Large-field smoke: the index-vs-unindexed parity cross-check plus a
# downscaled grid run with every scaling feature on (spatial wake index,
# hierarchical collection, duty cycling, bounded history). Small grids never
# touch the committed baseline; see docs/PERFORMANCE.md.
grid-smoke:
	$(GO) run ./cmd/sidbench -exp grid -grid 8x8 -gomaxprocs 2

# Refreshes the canonical grid_100x100 baseline entry and its speedup curve
# (tens of seconds per worker setting; see docs/PERFORMANCE.md).
grid-baseline:
	$(GO) run ./cmd/sidbench -exp grid -gomaxprocs 2

# Runs the multi-tenant detection server (docs/SERVING.md).
SERVE_ADDR ?= localhost:8080
serve:
	$(GO) run ./cmd/sidserve -addr $(SERVE_ADDR)

# Closed-loop load generator against an in-process server: 1000 concurrent
# tenants over loopback HTTP; refreshes the serve_1k_tenants entry in
# BENCH_baseline.json (pinned to GOMAXPROCS=2 like the rest of the
# baseline; see docs/SERVING.md and docs/PERFORMANCE.md).
loadgen:
	$(GO) run ./cmd/sidbench -exp serve -gomaxprocs 2

# Serve smoke: boot sidserve, drive a handful of tenants through the load
# generator's external-address path (create, ingest, event-stream
# confirmations, delete), and shut the server down. The load generator
# waits for readiness itself and fails if any ingest confirmation or
# detection event goes missing.
SERVE_SMOKE_ADDR ?= localhost:18080
serve-smoke:
	@$(GO) build -o /tmp/sidserve-smoke ./cmd/sidserve
	@/tmp/sidserve-smoke -addr $(SERVE_SMOKE_ADDR) & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	$(GO) run ./cmd/sidbench -exp serve -tenants 8 -addr $(SERVE_SMOKE_ADDR); \
	status=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	exit $$status

# Trace smoke: record the hot feed with tracing, replay it into a traced
# tenant over HTTP, assert the served trace is byte-identical to the
# recording (sidbench exits nonzero otherwise), and render the detection
# waterfall with sidwatch, requiring at least four distinct span kinds
# (see docs/OBSERVABILITY.md).
TRACE_TMP := $(shell mktemp -d)
trace-smoke:
	$(GO) run ./cmd/sidbench -exp trace > $(TRACE_TMP)/trace.jsonl
	$(GO) run ./cmd/sidwatch trace -min-kinds 4 $(TRACE_TMP)/trace.jsonl
	@rm -rf $(TRACE_TMP)

# Observability smoke: journal one golden scenario and render it with
# sidwatch (see docs/OBSERVABILITY.md). Fails if the report comes out empty.
OBS_TMP := $(shell mktemp -d)
obs:
	$(GO) run ./cmd/sidbench -exp scenarios -only single-10kn -journal $(OBS_TMP)
	$(GO) run ./cmd/sidwatch $(OBS_TMP)/single-10kn.jsonl > $(OBS_TMP)/report.txt
	@test -s $(OBS_TMP)/report.txt || { echo "obs: empty sidwatch report"; exit 1; }
	@cat $(OBS_TMP)/report.txt
	@rm -rf $(OBS_TMP)
