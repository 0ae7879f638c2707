GO ?= go

.PHONY: all build test race chaos lint lint-stats fix fmt cover bench bench-cache bench-hotpath bench-lint

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector (the dedicated `race` CI job).
race:
	$(GO) test -race ./...

# Chaos harness: fault-injection sweeps, the worker-pool panic/cancel
# matrix, drain-under-load, and request collapsing under concurrent load,
# all under the race detector (the `chaos` CI job).
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Pool|Drain|Shed|Disconnect|Collapse' ./internal/server/ ./cmd/dprled/

# Static analysis: go vet plus the repo-specific invariant suite
# (DESIGN.md §7), including the interprocedural layer (locksafe, nilness
# N3, budgetflow F3). Both exit non-zero on findings, failing the build.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/dprlelint ./...

# lint plus per-analyzer statistics (finding counts, wall time, and the
# conservative-skip counters), bounded at 120s to catch summary-fixpoint
# blowup (the `lint` CI job's lint-stats step).
lint-stats:
	timeout 120 $(GO) run ./cmd/dprlelint -stats ./...

# Lint experiment: the full suite over the module plus the strlang fixture
# drill, with per-analyzer wall time and the solver-call/cache-hit/widening
# counters, written to BENCH_lint.json (the `lint` CI job's smoke step).
bench-lint:
	timeout 180 $(GO) run ./cmd/benchtab -table lint

# Apply dprlelint's suggested fixes (sorted-map-iteration rewrites).
fix:
	$(GO) run ./cmd/dprlelint -fix ./...

fmt:
	gofmt -l -w .

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Cache smoke: corpus-wide cached≡uncached equivalence (witnesses verified),
# the >=3x warm-speedup bound, and the cold/warm benchmarks, one iteration
# each (the `bench-cache` CI job). Fails on any cache-correctness assertion.
bench-cache:
	$(GO) test -bench='BenchmarkCache' -benchtime=1x -run 'TestCacheCorpus' -v .

# Hot-path substrate experiment (DESIGN.md §11): steady-state wall time and
# allocations for the six NFA hot-path workloads, read against the frozen
# pre-rework baseline carried inside BENCH_hotpath.json and rewritten in
# place. Bounded so a pathological regression fails instead of hanging CI.
bench-hotpath:
	timeout 300 $(GO) run ./cmd/benchtab -table hotpath
