GO ?= go

.PHONY: ci fmt vet vet-perfbench test race e2e-fleet fuzz-smoke bench bench-quick bench-hgpart-smoke bench-scaling bench-block bench-block-smoke bench-locality bench-locality-smoke bench-spgemm bench-spgemm-smoke compare-smoke build doc-check loc

# ci runs only the smoke variants of the benchmarks. The wall-clock
# gates bench-scaling, bench-block and bench-locality are not part of
# it: they need a quiet multi-CPU host and minutes of paper-size runs,
# so they are run by hand when their BENCH_*.json files are re-recorded.
ci: doc-check build vet-perfbench race e2e-fleet fuzz-smoke bench-hgpart-smoke bench-locality-smoke bench-block-smoke bench-spgemm-smoke compare-smoke

build:
	$(GO) build ./...
	$(GO) build -o /dev/null ./cmd/partserverd

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# vet-perfbench compiles and vets the benchmark module. perfbench/ has
# its own go.mod, so `go build ./...` at the root never sees it; this
# catches an API change that would break the benchmark. The environment
# matches perfbench/run.sh (no module downloads, no workspace).
vet-perfbench:
	GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) -C perfbench vet ./...

# doc-check keeps the documentation honest: gofmt + vet, the
# metrics ↔ OBSERVABILITY.md drift guard, the model-registry ↔
# README/EXPERIMENTS.md drift guard, and the per-subsystem surface
# guard (flags, spans, artifacts, API names; deleted names stay out).
doc-check: fmt vet
	$(GO) test -run 'TestMetricsDocumented' ./internal/partserver/
	$(GO) test -run 'TestDocs' .

test:
	$(GO) test ./...

# loc prints the line count of the non-test Go files outside perfbench/
# (tracked and untracked, not ignored): the size figure ROADMAP quotes,
# so a change can state its line delta from one command.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l

# race covers the concurrent subsystems, including the shared executor
# (internal/par), the recursion scheduler and balancer the partitioners
# share (internal/mlpart), both partitioners' parallel recursion branches
# (internal/hgpart, internal/gpart) and the golden digests at Workers
# 1, 2 and 8, the partition server's end-to-end test (in-process
# daemon, concurrent duplicate submissions, graceful drain), the real
# SpMV kernel's bitwise determinism at worker counts beyond GOMAXPROCS,
# and the solver's multi-worker block and kernel CG.
race:
	$(GO) test -race ./internal/par/ ./internal/mlpart/ ./internal/hgpart/ ./internal/gpart/ ./internal/spmv/ ./internal/partserver/ ./internal/kernel/ ./internal/solver/ ./internal/reorder/ ./internal/mediumgrain/ ./internal/spgemm/
	$(GO) test -race -run 'TestLocality|TestMediumGrain|TestAuto|TestGraphModelWorkers|TestGoldenFixedPartition' .
	$(GO) test ./...

# e2e-fleet boots two-replica fleets under the race detector: a shared
# store directory (replica B serves A's computation, a restarted A
# still has it — zero recomputation, verified by the partitions
# counter), consistent-hash routing to the owner, and local fallback
# when the owner is down.
e2e-fleet:
	$(GO) test -race -count=1 -run 'TestFleet' ./internal/partserver/

# fuzz-smoke fuzzes for 10s per target: the Matrix Market reader's
# FuzzRead (Read: no panic, valid matrix, write/read round trip) and
# FuzzReadCSRStream (ReadCSRStream on plain and gzip bodies: no panic,
# hash matches the compiled matrix, agrees with Read), and the SpMV
# plan compile's FuzzNewPlan (schedule equals the reference compile,
# Exec bitwise equal at Workers 1 and 3 and equal to the serial
# product, counters equal comm.Measure). go test -fuzz takes one
# target per run, so each gets its own invocation; a failing input is
# saved under the package's testdata/fuzz/ as a regression seed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/mmio/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSRStream$$' -fuzztime 10s ./internal/mmio/
	$(GO) test -run '^$$' -fuzz '^FuzzNewPlan$$' -fuzztime 10s ./internal/spmv/

# bench regenerates BENCH_partition.json: the Workers sweep of the
# multilevel partitioner (median/min/max time of 5 alternating samples
# per worker count, allocs/op, bytes/op) on the nl matrix at K=64 and
# ken-11 at K=16, both at paper size.
bench:
	$(GO) test -run '^$$' -bench BenchmarkPartitionWorkers -benchtime 1x .

# bench-quick is the seconds-long variant for iterating on the hot
# path: one small matrix, no JSON artifact.
bench-quick:
	$(GO) test -run '^$$' -bench BenchmarkPartitionSmall -benchtime 1x .

# bench-hgpart-smoke runs the partitioners' layer benchmarks once, so
# they keep compiling and running: the initial bisection (GHG and
# random-fill trials) on the coarsest level of the nl fine-grain ladder
# in hgpart and of the nl standard graph's ladder in gpart, hgpart's
# coarsening (the level ladder of the finan512 fine-grain top
# bisection), and hgpart's whole bisection tree (BenchmarkPartitionTree:
# finan512 fine-grain, K=64, Workers 1, where the children's ladders
# start from the levels they inherit). It also runs BenchmarkModelBuild, the construction of each
# production hypergraph model (fine-grain, rectangular fine-grain,
# column-net, medium-grain on a shrunken cre-b; both SpGEMM models on a
# shrunken ken-11), which feeds them.
# -benchmem prints B/op and allocs/op, so an allocation regression shows
# in the CI log (at 1x, B/op includes growing the scratch arena). Raise
# -benchtime to time a layer or to see its warm allocation.
bench-hgpart-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkInitialBisect|BenchmarkCoarsen|BenchmarkPartitionTree' -benchtime 1x -benchmem ./internal/hgpart/ ./internal/gpart/
	$(GO) test -run '^$$' -bench BenchmarkModelBuild -benchtime 1x -benchmem .

# bench-scaling is the gate for partitioner scaling: it regenerates
# BENCH_partition.json and fails if the multi-worker speedup of the
# median times on nl/K=64 drops below the floor (default 1.8x, override
# with FINEGRAIN_SCALING_FLOOR=2.5 make bench-scaling). Hosts with a single
# CPU run the sweep but skip enforcement — no speedup is physically
# possible there; the JSON records gomaxprocs so readers can tell.
FINEGRAIN_SCALING_FLOOR ?= 1.8
bench-scaling:
	FINEGRAIN_SCALING_FLOOR=$(FINEGRAIN_SCALING_FLOOR) \
		$(GO) test -run '^$$' -bench BenchmarkPartitionWorkers -benchtime 1x .

# bench-block regenerates BENCH_block.json: one ExecBlock over N
# stacked right-hand sides against N single Execs on the same reused
# plan (nl at paper size, K=64, N in 1/4/8/16), median/min/max of 5
# alternating samples per width. The run itself asserts
# the block path's message count equals a single multiply's at every
# width; the wall-clock speedup gate (default 1.0x, override with
# FINEGRAIN_BLOCK_FLOOR=1.2 make bench-block) is enforced only on
# hosts with GOMAXPROCS >= 2, mirroring bench-locality.
FINEGRAIN_BLOCK_FLOOR ?= 1.0
bench-block:
	FINEGRAIN_BLOCK_FLOOR=$(FINEGRAIN_BLOCK_FLOOR) \
		$(GO) test -run '^$$' -bench BenchmarkBlockSpMV -benchtime 1x .

# bench-block-smoke is the ci wiring check: one iteration per batch
# width on a shrunken matrix, no artifact, no gate — but the message
# equality assertion still runs. It also runs BenchmarkSessionSolve
# once (1- and 8-RHS Session.Solve on nl's SPD form, fine-grain K=64,
# Workers 1, shrunken here), the solve path's layer benchmark; for a
# timing at paper size run
# go test -run '^$$' -bench BenchmarkSessionSolve -benchtime 10x .
# It also runs BenchmarkNewPlan once (the spmv plan compile on finan512,
# fine-grain K=64; about 8 s of decomposition set-up) with -benchmem,
# so the compile's allocation count shows in the CI log.
bench-block-smoke:
	FINEGRAIN_BLOCK_SMOKE=1 \
		$(GO) test -run '^$$' -bench 'BenchmarkBlockSpMV|BenchmarkSessionSolve' -benchtime 1x .
	$(GO) test -run '^$$' -bench BenchmarkNewPlan -benchtime 1x -benchmem ./internal/spmv/

# bench-locality regenerates BENCH_locality.json: wall-clock ns/op and
# GFLOP/s of the real multithreaded kernel on nl (K=8), ken-11 (K=64)
# and finan512 (K=32) at paper size, natural order vs. the locality
# model's cache-blocking permutation. The speedup gate (default 1.0x, override
# with FINEGRAIN_LOCALITY_FLOOR=1.05 make bench-locality) is enforced
# only on hosts with GOMAXPROCS >= 2, mirroring bench-scaling; the JSON
# records gomaxprocs either way.
FINEGRAIN_LOCALITY_FLOOR ?= 1.0
bench-locality:
	FINEGRAIN_LOCALITY_FLOOR=$(FINEGRAIN_LOCALITY_FLOOR) \
		$(GO) test -run '^$$' -bench BenchmarkLocality -benchtime 1x .

# bench-locality-smoke is the ci wiring check: one timing round per
# layout on shrunken matrices, no artifact, no gate. It also runs
# sparsepart -measure, the CLI's natural-vs-reordered kernel timing,
# on a shrunken nl.
bench-locality-smoke:
	FINEGRAIN_LOCALITY_SMOKE=1 \
		$(GO) test -run '^$$' -bench BenchmarkLocality -benchtime 1x .
	$(GO) run ./cmd/sparsepart -gen nl -scale 0.02 -k 4 -model locality -measure

# bench-spgemm regenerates BENCH_spgemm.json: both SpGEMM hypergraph
# models (fine-grain elementwise and 1D rowwise) partitioning C = A·A
# on ken-11 and cq9 at K in {4, 16}, with the simulated Sparse-SUMMA
# executor re-asserting in every cell that realized words and messages
# equal the model's cutsize-derived prediction.
bench-spgemm:
	$(GO) run ./cmd/experiments -spgemmbench -scale 0.05 -k 4,16 -quiet

# bench-spgemm-smoke is the ci wiring check: shrunken matrices, one K,
# no artifact — the per-cell exactness assertions still run.
bench-spgemm-smoke:
	$(GO) run ./cmd/experiments -spgemmbench -scale 0.02 -k 4 -json "" -quiet

# compare-smoke runs the four-model sweep of cmd/experiments, which
# decomposes every cell through the finegrain model registry, on two
# shrunken matrices at one K and one seed.
compare-smoke:
	$(GO) run ./cmd/experiments -compare -scale 0.02 -k 4 -seeds 1 -matrices ken-11,cq9 -quiet
