GO ?= go

.PHONY: build test race race-matrix vet check fuzz fuzz-smoke bench bench-kernel bench-e2e bench-serve bench-diff serve-smoke demo-smoke soak soak-cluster cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# race-matrix re-runs the concurrency-heavy packages under the race
# detector at 1 and 4 CPUs — single-CPU scheduling serializes goroutines
# differently and has caught interleavings the default run missed.
race-matrix:
	$(GO) test -race -cpu 1,4 ./internal/mpi ./internal/tcpmpi \
		./internal/faults ./internal/core ./internal/pool ./internal/trace \
		./internal/cluster ./internal/kernel ./internal/la ./internal/serve \
		./internal/telemetry ./internal/telemetry/fleet

# fuzz-smoke runs every fuzz target's seed corpus (no exploration) so the
# corpora cannot rot; `make fuzz` does the time-boxed exploration.
fuzz-smoke:
	$(GO) test -run 'Fuzz' ./internal/data ./internal/tcpmpi ./internal/trace \
		./internal/serve ./internal/cluster

# serve-smoke boots the live telemetry server against a real training run
# held mid-flight (TestServeSmoke) and against a cluster coordinator with
# per-job namespaces (TestServeClusterNamespaces), scraping /metrics,
# /report, /events, /jobs and /debug/pprof — plus the whole inference-plane
# suite (HTTP smoke, batched-vs-sequential equivalence, hot-reload torn-model
# hammering) under the race detector.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServe' ./internal/telemetry
	$(GO) test -race -count=1 ./internal/serve

# demo-smoke runs the distributed example end to end: a coordinator
# gang-schedules a Remote job onto two forked executor processes, kill -9s
# one mid-epoch, and exits non-zero unless the recovered ModelHash equals
# the fault-free one.
demo-smoke:
	$(GO) run ./examples/distributed -cluster -p 2

# check is the full verification gate: vet, the whole suite under the race
# detector (which includes the TestChaosMatrix fault smoke: six methods ×
# crash/drop+delay/corrupt under respawn recovery), the 1/4-CPU race matrix
# over the concurrency-heavy packages, the fuzz seed corpora, the
# live-server smoke run, and the distributed example's kill -9 demo.
check: vet race race-matrix fuzz-smoke serve-smoke demo-smoke

# soak is the randomized chaos soak: seeded random fault schedules over
# every method family and both recovery policies, each run checked for
# deadlock-freedom, bounded retries and convergence. Any failure log prints
# the schedule seed, which alone reproduces the run.
soak:
	CASVM_SOAK=1 $(GO) test -count=1 -run TestChaosSoak -v ./internal/core

# soak-cluster churns a live coordinator for ~20s: six concurrent jobs over
# six workers while a chaos goroutine revokes and re-registers leases every
# 150ms. Every job must terminate (no hangs), at least half must complete,
# and completed jobs must still converge to accurate models. The remote
# soak then repeats the exercise with real executor processes — Remote jobs
# train on forked workers while the churn loop kill -9s and replaces them,
# and every completed job must land on its fault-free ModelHash. The fleet
# soak then runs a Remote job on four forked executor processes, one slowed
# by an injected per-iteration delay, and asserts the straggler is flagged
# and the merged fleet trace parses strictly and analyzes end-to-end.
soak-cluster:
	CASVM_SOAK_CLUSTER=1 $(GO) test -count=1 -timeout 300s -run 'TestClusterSoak|TestRemoteSoak|TestFleetSoak' -v ./internal/cluster

# bench runs the SMO hot-path benchmark suite at 1 and 4 threads and
# records ns/op + allocs/op in BENCH_smo.json (via cmd/benchjson).
# BenchmarkSolveInstrumented vs BenchmarkSolve prices the live-timeline
# overhead; the disabled path is pinned to 0 allocs/op by test.
bench: bench-kernel
	$(GO) test ./internal/smo ./internal/kernel ./internal/la \
		-run '^$$' -bench 'BenchmarkSolve$$|BenchmarkSolveInstrumented$$|BenchmarkSolveCheckpointed$$|UpdateScanFused|RowCache|BenchmarkDot' \
		-benchmem -cpu 1,4 | $(GO) run ./cmd/benchjson > BENCH_smo.json
	@echo wrote BENCH_smo.json

# bench-kernel records the tile-engine suite in BENCH_kernel.json: blocked
# MulTile vs the row loop, CrossTile vs per-element Eval, batched
# PredictAll vs the per-row loop it replaced (the mixed-storage cases are
# the headline: the row path re-densifies the sparse side per support
# vector), and the two LIBSVM readers.
KERNEL_BENCH = BenchmarkMulTile|BenchmarkCrossTile|BenchmarkPredictAll|BenchmarkLoadLIBSVM
KERNEL_BENCH_PKGS = ./internal/la ./internal/kernel ./internal/model ./internal/data
bench-kernel:
	$(GO) test $(KERNEL_BENCH_PKGS) -run '^$$' -bench '$(KERNEL_BENCH)' \
		-benchmem | $(GO) run ./cmd/benchjson > BENCH_kernel.json
	@echo wrote BENCH_kernel.json

# bench-e2e records the end-to-end training benchmarks (the root-package
# ablation suite) in BENCH_e2e.json — the committed baseline bench-diff
# gates against. Three iterations each: the modeled work is deterministic,
# and averaging a few wall timings keeps scheduler noise inside the diff
# threshold.
bench-e2e:
	$(GO) test . -run '^$$' -bench BenchmarkAblation -benchmem -benchtime 3x \
		| $(GO) run ./cmd/benchjson > BENCH_e2e.json
	@echo wrote BENCH_e2e.json

# bench-serve records the sustained-load serving benchmark in
# BENCH_serve.json: the face-like compressed model served over real HTTP
# with binary query payloads at client concurrency 2·GOMAXPROCS. One op is
# one 256-query request, so ns/op is per-request wall time; the extra
# metrics carry the headline preds/s and exact p50/p99 request latency.
bench-serve:
	$(GO) test ./internal/serve -run '^$$' -bench BenchmarkServeSustained \
		-benchtime 1500x | $(GO) run ./cmd/benchjson > BENCH_serve.json
	@echo wrote BENCH_serve.json

# bench-diff re-runs the e2e and tile-engine suites and exits nonzero when
# any benchmark's ns/op regressed past the threshold ratio against the
# committed baselines (0.5 = 50%, generous because single-iteration wall
# timings are noisy — algorithmic regressions are far larger).
BENCH_DIFF_THRESHOLD ?= 0.5
bench-diff:
	$(GO) test . -run '^$$' -bench BenchmarkAblation -benchmem -benchtime 3x \
		| $(GO) run ./cmd/benchjson > BENCH_e2e.new.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_DIFF_THRESHOLD) \
		BENCH_e2e.json BENCH_e2e.new.json
	@rm -f BENCH_e2e.new.json
	$(GO) test $(KERNEL_BENCH_PKGS) -run '^$$' -bench '$(KERNEL_BENCH)' \
		-benchmem | $(GO) run ./cmd/benchjson > BENCH_kernel.new.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_DIFF_THRESHOLD) \
		BENCH_kernel.json BENCH_kernel.new.json
	@rm -f BENCH_kernel.new.json
	$(GO) test ./internal/serve -run '^$$' -bench BenchmarkServeSustained \
		-benchtime 1500x | $(GO) run ./cmd/benchjson > BENCH_serve.new.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_DIFF_THRESHOLD) \
		BENCH_serve.json BENCH_serve.new.json
	@rm -f BENCH_serve.new.json

# Short fuzz sweep over every fuzz target (parsers, the wire-frame
# decoder, and the run-report round trip); seed corpora also run in
# plain `make test`.
fuzz:
	$(GO) test -fuzz FuzzReadLIBSVM -fuzztime 10s ./internal/data
	$(GO) test -fuzz FuzzReadFrame -fuzztime 10s ./internal/tcpmpi
	$(GO) test -fuzz FuzzRunReportRoundTrip -fuzztime 10s ./internal/trace
	$(GO) test -run 'Fuzz' -fuzz FuzzDecodePredictRequest -fuzztime 10s ./internal/serve
	$(GO) test -run 'Fuzz' -fuzz FuzzExecFrames -fuzztime 10s ./internal/cluster

# cover enforces statement-coverage floors on the packages whose
# regressions are silent: 70% on the observability/modeling set, 75% on the
# fleet telemetry plane (its merge/repair arithmetic fails quietly — a
# wrong offset still produces a plausible-looking trace) and the cluster
# runtime (its recovery and remote-executor paths only run when workers
# die, so untested code is exactly the code that fires in production
# incidents), 80% on the inference plane (it fronts production traffic, so
# its error paths must be exercised, not just its happy path).
COVER_PKGS = ./internal/trace ./internal/trace/critpath ./internal/perfmodel ./internal/expt \
	./internal/kernel ./internal/la ./internal/compress
COVER_PKGS_75 = ./internal/telemetry/fleet ./internal/cluster
COVER_PKGS_80 = ./internal/serve
cover:
	@for pkg in $(COVER_PKGS); do \
		out=$$($(GO) test -cover $$pkg | tail -1); \
		echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "FAIL: no coverage for $$pkg"; exit 1; fi; \
		if ! awk -v p="$$pct" 'BEGIN{exit (p>=70)?0:1}'; then \
			echo "FAIL: $$pkg coverage $$pct% < 70%"; exit 1; fi; \
	done
	@for pkg in $(COVER_PKGS_75); do \
		out=$$($(GO) test -cover $$pkg | tail -1); \
		echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "FAIL: no coverage for $$pkg"; exit 1; fi; \
		if ! awk -v p="$$pct" 'BEGIN{exit (p>=75)?0:1}'; then \
			echo "FAIL: $$pkg coverage $$pct% < 75%"; exit 1; fi; \
	done
	@for pkg in $(COVER_PKGS_80); do \
		out=$$($(GO) test -cover $$pkg | tail -1); \
		echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "FAIL: no coverage for $$pkg"; exit 1; fi; \
		if ! awk -v p="$$pct" 'BEGIN{exit (p>=80)?0:1}'; then \
			echo "FAIL: $$pkg coverage $$pct% < 80%"; exit 1; fi; \
	done
	@echo "coverage floors (70%/75%/80%) passed"
