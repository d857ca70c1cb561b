# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all ci build test race chaos serve-smoke gbcsr-smoke patch-smoke shard-smoke fuzz cover bench bench-compare bench-scaling bench-smoke bench-e2e-smoke figures fmt fmtcheck vet staticcheck govulncheck clean

all: build vet fmtcheck test

# The exact gate .github/workflows/ci.yml runs; `make ci` reproduces a CI
# failure locally. staticcheck/govulncheck no-op with a notice when the
# tools aren't installed (CI installs them).
ci: fmtcheck vet staticcheck govulncheck build test race chaos serve-smoke gbcsr-smoke patch-smoke shard-smoke bench-smoke bench-e2e-smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package; includes the parallel-growth →
# arena-commit path (sampling's TestParallelGrowGreedyRegrowCycles and
# friends drive multi-worker growth into the flat coverage engine). The
# sample-family concurrency tests and the lane-budget tests (tokens
# granted and returned per chunk) then run ten more times.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestFamily|TestFlightGroupCoalesces|TestTopKLaneBudget' ./internal/server
	$(GO) test -race -count=10 -run 'TestLaneBudget|TestDroppedSetsLeaveNoGoroutines' ./internal/sampling

# Chaos pass: the fault-injection build (-tags faultinject) with every
# injection point armed, hammering a live server under -race. The default
# build compiles the injection points away entirely.
chaos:
	$(GO) test -race -tags faultinject -run 'TestChaos|TestFaultInject|TestArm|TestFire|TestDisarm|TestSchedulerShutdownStress' \
		-timeout 300s ./internal/server ./internal/faultinject

# Static analysis and vulnerability scan; skipped with a notice when the
# tools are missing (install: go install honnef.co/go/tools/cmd/staticcheck@latest
# and go install golang.org/x/vuln/cmd/govulncheck@latest).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else echo "staticcheck: not installed, skipping"; fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else echo "govulncheck: not installed, skipping"; fi

# End-to-end smoke test of the gbcd daemon: build, serve on a random port,
# upload a generated graph, query top-K, assert the JSON shape, sample
# family reuse and memo answers, drain on SIGTERM.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke test of the binary .gbcsr graph format: generate a
# dataset straight to .gbcsr, solve it from disk (mmap-attached), diff the
# JSON result byte-for-byte against the in-memory solve, and check a
# truncated file is rejected loudly.
gbcsr-smoke:
	sh scripts/gbcsr_smoke.sh

# End-to-end smoke test of sharded serving: 2 shard workers + 1
# coordinator over real TCP, a deterministic top-K on a .gbcsr graph
# diffed byte-for-byte against the single-node cmd/gbc solve, and the
# /v1/cluster surface asserting the growth really ran remotely.
shard-smoke:
	sh scripts/shard_smoke.sh

# End-to-end smoke test of graph versioning: register, solve, repeat
# (served from the result cache), PATCH an edge delta, assert the repeat
# solves fresh on the new version, plus ifVersion 409s and typed delta
# 400s against the live daemon.
patch-smoke:
	sh scripts/patch_smoke.sh

# Short smoke run of the native Go fuzzers: the untrusted-input ones (the
# two edge-list parsers, the binary .gbcsr decoder, the shard payload
# decoder, the shard worker's epoch request body and the HTTP bodies of
# POST /v1/topk, PATCH /v1/graphs/{name} and graph upload), the
# bidirectional sampler checked against the forward reference and the
# Dijkstra sampler checked against DijkstraSSSP, both on small graphs, and
# the coverage engine's Add/Extend/Reset/Splice/Commit interleavings
# checked against a model rebuilt from the stored paths.
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadEdgeList$$ -fuzztime 10s ./internal/graph
	$(GO) test -run xxx -fuzz FuzzReadWeightedEdgeList -fuzztime 10s ./internal/graph
	$(GO) test -run xxx -fuzz FuzzDecodeCSR -fuzztime 10s ./internal/graph
	$(GO) test -run xxx -fuzz FuzzDecodeArenaPayload -fuzztime 10s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzWorkerEpoch -fuzztime 10s ./internal/shard
	$(GO) test -run xxx -fuzz FuzzTopKDecode -fuzztime 10s ./internal/server
	$(GO) test -run xxx -fuzz FuzzGraphPatchDecode -fuzztime 10s ./internal/server
	$(GO) test -run xxx -fuzz FuzzGraphDecode -fuzztime 10s ./internal/server
	$(GO) test -run xxx -fuzz FuzzBidirectionalSample -fuzztime 10s ./internal/bfs
	$(GO) test -run xxx -fuzz FuzzDijkstraSample -fuzztime 10s ./internal/bfs
	$(GO) test -run xxx -fuzz FuzzInstanceOps -fuzztime 10s ./internal/coverage

cover:
	$(GO) test -cover ./...

# One pass over every figure/ablation/micro benchmark.
bench:
	$(GO) test -run xxx -bench=. -benchmem -benchtime=1x ./...

# Multicore scaling sweep of warm sampling growth: the workers matrix of
# BenchmarkSamplingGrowWarm, saved to results/bench_scaling.txt.
bench-scaling:
	mkdir -p results
	$(GO) test -run xxx -bench 'BenchmarkSamplingGrowWarm' -benchmem -count=3 . \
		| tee results/bench_scaling.txt

# One-op race-checked pass over the warm growth benchmarks at workers
# {1,2,4,8} — the CI guard that keeps the lane fork-join data-race-free
# without paying for a full benchmark run — and over the stored-sample
# solve benchmark, which keeps its commit/greedy split compiling and
# running.
bench-smoke:
	$(GO) test -race -run xxx -bench 'BenchmarkSamplingGrowWarm' -benchtime=1x .
	$(GO) test -race -run xxx -bench 'BenchmarkServedSolveStoredSamples' -benchtime=1x .

# Vet and smoke-test cmd/gbcbench, the end-to-end benchmark. It is a module
# of its own, so the root build, vet and tests do not compile it; this
# target catches a change that breaks an identifier it uses.
bench-e2e-smoke:
	cd cmd/gbcbench && $(GO) vet . && $(GO) test .

# Compare two captured benchmark runs (the BENCH_N workflow used by
# BENCH_2/BENCH_3; see README "Benchmark comparison workflow"):
#   go test -run xxx -bench <pattern> -benchmem -count=3 . > results/BENCH_N_before.txt
#   ... apply the change ...
#   go test -run xxx -bench <pattern> -benchmem -count=3 . > results/BENCH_N_after.txt
#   make bench-compare BENCH_BEFORE=... BENCH_AFTER=...
# benchstat: go install golang.org/x/perf/cmd/benchstat@latest
BENCH_BEFORE ?= results/BENCH_3_before.txt
BENCH_AFTER ?= results/BENCH_3_after.txt
bench-compare:
	benchstat $(BENCH_BEFORE) $(BENCH_AFTER)

# Regenerate the paper's tables and figures into results/.
figures:
	mkdir -p results
	$(GO) run ./cmd/experiments -table 1          > results/table1.txt
	$(GO) run ./cmd/experiments -fig 1 -reps 10   > results/fig1.txt
	$(GO) run ./cmd/experiments -fig 2 -reps 2    > results/fig2.txt
	$(GO) run ./cmd/experiments -fig 3 -reps 1    > results/fig3.txt
	$(GO) run ./cmd/experiments -fig 4 -reps 3    > results/fig4.txt
	$(GO) run ./cmd/experiments -fig 5 -reps 3    > results/fig5.txt

fmt:
	gofmt -w .

# Fail if any file is not gofmt-clean (CI gate; `make fmt` fixes).
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

clean:
	rm -f test_output.txt bench_output.txt
