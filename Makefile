# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; `make lint` is the full static-analysis gate.

GO ?= go
MMDBLINT := bin/mmdblint

.PHONY: all build test race vet mmdblint lint lint-concurrency fmt clean crashmatrix fuzz bench trace mmdbd-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race gate CI requires: the concurrent core under the race detector.
race:
	$(GO) test -race ./internal/... ./kvstore/...

vet:
	$(GO) vet ./...

# The crash matrix: every checkpoint algorithm × every named crash point
# (internal/faultfs) × {1, 4} checkpoint/recovery workers on the one
# batched pipeline (TestCrashMatrixParallel arms the per-worker crash
# points), recovered and checked against the committed-transaction
# oracle, plus the 1-vs-4-worker oracles (recovered images, backup
# copies), under the race detector. The -tags slow soak
# (TestCrashMatrixSoak) multiplies seeds and workload length.
CRASHMATRIX_RUN := TestCrash|TestCommitInDoubt|TestRecoveryOneVsFourWorkers|TestEngineRecoveryOneVsFourWorkers|TestBackupImageEquivalence
crashmatrix:
	$(GO) test -race -run '$(CRASHMATRIX_RUN)' ./internal/testbed/ ./internal/engine/ ./kvstore/

# The benchmark matrix: ckptbench across all eight checkpoint algorithms
# with an end-of-run crash, each run with 1 and with 4 checkpoint/recovery
# workers, writing the schema'd measured-vs-analytic result file (commit
# latency quantiles, per-phase recovery times, the 4-vs-1-worker
# comparison, and the run priced against the paper's model). A 4-shard
# loopback run follows, then the paper's Section 5 model verification:
# all eight algorithms under a paced 400 txn/s load with checkpoint
# writes throttled by the Table 2b disk model (20x faster), each priced
# against the model at that disk. CI uploads the file as an artifact.
# Tune BENCH_TXNS for a longer run, BENCH_PARALLEL for other pool widths.
BENCH_TXNS ?= 20000
BENCH_PARALLEL ?= 1,4
BENCH_SHARDS ?= 4
bench:
	$(GO) run ./cmd/ckptbench -matrix -crash -txns $(BENCH_TXNS) -parallel $(BENCH_PARALLEL) -json BENCH_ckpt.json
	$(GO) run ./cmd/ckptbench -shards $(BENCH_SHARDS) -crash -txns $(BENCH_TXNS) -append -json BENCH_ckpt.json
	$(GO) run ./cmd/ckptbench -matrix -throttle -speedup 20 -tps 400 -append -json BENCH_ckpt.json

# A traced run: one synchronous-commit workload with every commit traced
# (SpanSampleEvery=1), exporting the flight recorder's span ring as
# Chrome trace-event JSON — open TRACE_OUT in chrome://tracing or
# https://ui.perfetto.dev. Commit trees (wal_append, group_commit_flush,
# interference phases, aborts) and checkpoint trees (quiesce,
# per-segment flushes, log compaction) land on per-tree tracks. Tune
# TRACE_ALG/TRACE_TXNS for other algorithms or longer tails.
TRACE_OUT ?= trace.json
TRACE_ALG ?= COUCOPY
TRACE_TXNS ?= 5000
trace:
	$(GO) run ./cmd/ckptbench -alg $(TRACE_ALG) -sync -txns $(TRACE_TXNS) -trace $(TRACE_OUT)

# End-to-end smoke of the server binary: build cmd/mmdbd, boot it on an
# ephemeral port, drive traffic through the network client (mmdb/client
# over the netproto frame protocol), then SIGTERM it and require a
# clean exit. CI runs this on every push.
mmdbd-smoke:
	$(GO) test -v -run TestMmdbdSmoke ./cmd/mmdbd/

# Short fuzz runs of the WAL reader targets; the checked-in corpus and
# seeds alone also run as part of `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFrame -fuzztime 15s ./internal/netproto/
	$(GO) test -run '^$$' -fuzz FuzzReadRecord -fuzztime 15s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzRecover -fuzztime 15s ./internal/wal/

# mmdblint is the repo's own go/analysis suite: the syntactic analyzers
# (lockcheck, detcheck, errcheckwal, lsncheck), the flow-sensitive ones
# (walorder, lockorder, unlockcheck, goleakcheck), and the cross-package
# concurrency-discipline ones (atomiccheck, ctxcheck — the latter
# interprocedural over lint/callgraph facts). It runs as a go vet tool;
# add -json after the vettool flag for machine-readable diagnostics.
mmdblint:
	$(GO) build -o $(MMDBLINT) ./cmd/mmdblint

# Just the three concurrency-discipline analyzers (goroutine lifecycle,
# atomics, context propagation) — the fast loop while working on
# concurrent code.
lint-concurrency: mmdblint
	$(GO) vet -vettool=$(abspath $(MMDBLINT)) -goleakcheck -atomiccheck -ctxcheck ./...

# The hot-path allocation discipline: the alloccheck sweep (every
# function reachable from a perf:hotpath root allocation-free or
# reasoned), then the AllocsPerRun guards that pin the certified paths
# at runtime. The compiler oracle (go build -gcflags=-m agreement) is
# deliberately excluded here — it tracks toolchain drift and runs as an
# allow-failure CI job instead.
lint-perf: mmdblint
	$(GO) vet -vettool=$(abspath $(MMDBLINT)) -alloccheck ./...
	$(GO) test -run 'TestRepo|Allocation' ./lint/alloccheck/ ./internal/engine/ ./internal/wal/ ./kvstore/

# ./... covers examples/ too — the example programs are held to the same
# invariants as the engine.
lint: vet mmdblint
	$(GO) vet -vettool=$(abspath $(MMDBLINT)) ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; \
	fi
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .

clean:
	rm -rf bin
