GO ?= go

.PHONY: test sidperf-test sidperf-gates bench race vet fmt baseline obs replay adversarial serve serve-smoke

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

# Regenerates BENCH_baseline.json on this host (docs/PERFORMANCE.md): the
# micro-benchmarks of bench_test.go, then every sidperf workload once
# untraced and once traced. sidbench -baseline only formats the captures,
# and it fails if a run is incorrect or the runs disagree on the host.
baseline:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	echo "baseline: go test -bench . -benchmem" >&2; \
	$(GO) test -run '^$$' -bench . -benchmem -count 1 . > $$tmp/micro.txt || exit 1; \
	for w in grid_100x100 replay_fleet serve_open; do \
		for t in 0 1; do \
			echo "baseline: sidperf $$w --trace $$t" >&2; \
			bash sidperf/run.sh --workload $$w --seed 1 --trace $$t > $$tmp/$$w.trace$$t.txt || exit 1; \
		done; \
	done; \
	$(GO) run ./cmd/sidbench -baseline BENCH_baseline.json $$tmp/*.txt

# Runs the multi-tenant detection server (docs/SERVING.md).
SERVE_ADDR ?= localhost:8080
serve:
	$(GO) run ./cmd/sidserve -addr $(SERVE_ADDR)

# Serve smoke: build and boot the sidserve binary and drive one traced
# tenant through it with sidbench -exp trace. That fails on a missing or
# out-of-order ingest confirmation, a lost detection event, a missing
# serve.end after delete, or served trace bytes that differ from the
# recording. sidwatch then renders the trace and fails on fewer than four
# span kinds (docs/SERVING.md, docs/OBSERVABILITY.md).
SERVE_SMOKE_ADDR ?= localhost:18080
serve-smoke:
	@tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/sidserve ./cmd/sidserve || exit 1; \
	$$tmp/sidserve -addr $(SERVE_SMOKE_ADDR) & pid=$$!; \
	$(GO) run ./cmd/sidbench -exp trace -addr $(SERVE_SMOKE_ADDR) > $$tmp/trace.jsonl || exit 1; \
	$(GO) run ./cmd/sidwatch trace -min-kinds 4 $$tmp/trace.jsonl

# Observability smoke: journal one golden scenario and render it with
# sidwatch (see docs/OBSERVABILITY.md). Fails if the report comes out empty.
OBS_TMP := $(shell mktemp -d)
obs:
	$(GO) run ./cmd/sidbench -exp scenarios -only single-10kn -journal $(OBS_TMP)
	$(GO) run ./cmd/sidwatch $(OBS_TMP)/single-10kn.jsonl > $(OBS_TMP)/report.txt
	@test -s $(OBS_TMP)/report.txt || { echo "obs: empty sidwatch report"; exit 1; }
	@cat $(OBS_TMP)/report.txt
	@rm -rf $(OBS_TMP)
