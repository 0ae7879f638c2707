GO ?= go

.PHONY: all build test race chaos lint lint-stats fix fmt cover bench bench-hotpath

all: build lint test

build:
	$(GO) build ./...

# The module's tests, then perfbench's vet and self-test: perfbench is a
# module of its own (replace dprle => ../), so ./... never reaches it, yet
# it calls into the solver and iterates analyzers.All().
test:
	$(GO) test ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

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

# Apply dprlelint's suggested fixes (sorted-map-iteration rewrites).
fix:
	$(GO) run ./cmd/dprlelint -fix ./...

fmt:
	gofmt -l -w .

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Every root benchmark (bench_test.go, cache_corpus_test.go), one iteration
# each, so they stay runnable (the `test` CI job's benchmark step).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Hot-path substrate experiment (DESIGN.md §11): steady-state wall time and
# allocations for the seven NFA hot-path workloads, read against the frozen
# pre-rework baseline carried inside BENCH_hotpath.json and rewritten in
# place. Bounded so a pathological regression fails instead of hanging CI.
bench-hotpath:
	timeout 300 $(GO) run ./cmd/benchtab -table hotpath
