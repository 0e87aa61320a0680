GO ?= go

.PHONY: all build test race vet fmt check chaos fuzz compare serve-e2e loadgen-smoke bench-smoke bench-json bench-compare clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Repeated fault-injection runs over the transports plus the invariant and
# cross-engine suites (what the CI chaos soak step executes). The Stream
# pattern soaks the chunked streaming path: per-chunk fault injection in
# comm, streaming-vs-bulk equivalence in core.
chaos:
	$(GO) test -race -count=3 -run 'Chaos|TCP|Stream' ./internal/comm
	$(GO) test -short -run 'Chaos|Invariant|CrossEngine|Stream' ./internal/core

# Short fuzz pass over every fuzz target (wire codecs, graph readers,
# generator specs, edge-table freeze/iteration, Out_Table order). `go test -fuzz` takes one
# target per run, so iterate; FUZZTIME scales the per-target budget.
FUZZTIME ?= 10s
fuzz:
	@for pkg in ./internal/wire ./internal/graph ./internal/gencli ./internal/edgetable ./internal/core ./internal/metrics ./internal/movesched; do \
		for target in $$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# Sweep every registered algorithm over the benchmark graph families on
# tiny inputs with invariants on, asserting each cell yields a valid
# partition (the CI smoke step). Full sweeps: `go run ./cmd/compare`.
compare:
	$(GO) run ./cmd/compare -smoke

# Job-service e2e suite under the race detector: HTTP lifecycle, queue
# overflow, cancellation reaching the engines, SSE backlog-then-live,
# concurrent submitters, drain semantics (the CI serve step).
serve-e2e:
	$(GO) test -race -count=1 ./internal/serve/

# Closed-loop load harness in CI mode: 2 clients x 2 jobs against a
# self-hosted service; fails unless every job completes.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -smoke -o /tmp/loadgen_smoke.json

# Repository benchmark smoke (the CI bench-smoke step): the perfbench unit
# tests, then one short untraced run each of lfr-dist and rmat-shared, which
# must exit 0 and report "correct":true. The rmat-shared check covers plm:
# Threads=1 and Threads=2 give the same partition, and traced and untraced
# runs agree. Full runs: see perfbench/README.md.
bench-smoke:
	cd perfbench && $(GO) test ./...
	out="$$(bash perfbench/run.sh --workload lfr-dist --seed 1 --seconds 3 --trace 0)" && \
		echo "$$out" && echo "$$out" | grep -q '"correct":true'
	out="$$(bash perfbench/run.sh --workload rmat-shared --seed 1 --seconds 3 --trace 0)" && \
		echo "$$out" && echo "$$out" | grep -q '"correct":true'

# Run the exchange and level-storage benchmarks and fixed-seed end-to-end
# solves, writing machine-readable results (micro-bench ns/op and allocs,
# bulk-vs-stream wall clock, overlap fraction, storage-vs-hash ratios, the
# plm/plp thread sweep and a host fingerprint) to BENCH_PR10.json.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_PR10.json

# Perf regression gate: re-run the suite and diff it against the checked-in
# baseline (override with BENCH_BASE=...). Exits non-zero when any metric
# regressed beyond tolerance; see cmd/benchjson for the tolerance flags.
BENCH_BASE ?= BENCH_PR10.json
bench-compare:
	$(GO) run ./cmd/benchjson -out /tmp/bench_head.json
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASE) /tmp/bench_head.json

# gofmt -l lists nonconforming files; fail if any.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: build vet fmt race

clean:
	$(GO) clean ./...
