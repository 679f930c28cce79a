# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all fmt inline build vet test test-race test-short bench bench-sweep bench-obs bench-fault bench-hotpath bench-trace bench-replay bench-rowpress bench-serve fuzz fuzz-list race tables security examples check

all: check

# Formatting gate: every tracked Go file must be gofmt-clean. The file
# list comes from git rather than `.`, because .bench_build/ can hold a Go
# tree (perfbench's GOPATH module cache).
fmt:
	@files="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$files" ]; then echo "gofmt needs to format:"; echo "$$files"; exit 1; fi

# Inlining guard: the hot-path helpers below must stay inside the
# compiler's inlining budget (80 nodes). uvarintAt sits at 79, and a
# variant at 85 decoded a mix-high trace at 31.1 against 25.5 ns/ACT
# (EXPERIMENTS.md); nothing else notices when an edit pushes one of them
# over. Prints each one that no longer inlines.
inline:
	@out="$$($(GO) build -gcflags=-m ./internal/trace ./internal/graphene ./internal/obs 2>&1)" || { printf '%s\n' "$$out"; exit 1; }; \
	have="$$(printf '%s\n' "$$out" | sed -n 's|^internal/\([a-z]*\)/[^:]*:[0-9]*:[0-9]*: can inline \(.*\)$$|\1.\2|p')"; \
	missing=""; \
	for fn in 'trace.uvarintAt' 'graphene.(*Bank).advanceWindow' 'obs.(*Counter).Add' 'obs.(*Counter).Inc'; do \
		printf '%s\n' "$$have" | grep -qxF "$$fn" || missing="$$missing $$fn"; \
	done; \
	if [ -n "$$missing" ]; then echo "no longer inlined:$$missing"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# One smoke pass over the sweep scheduler and the streaming replay path:
# a single iteration each of the jobs-1 vs jobs-max grid and the
# streaming-vs-buffered full-scale replay (with allocation counts).
bench-sweep:
	$(GO) test -run xxx -bench 'BenchmarkSweepScheduler' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkReplayFullScaleAdversarial' -benchtime 1x -benchmem ./internal/memctrl

# Observability smoke pass: a short replay on the full-scale Table III
# geometry with -metrics/-events-style file output enabled, asserting the
# event stream is non-empty valid JSON lines whose totals match the run's
# summary counters (DESIGN.md §7 contract).
bench-obs:
	$(GO) test -run 'TestObsSmoke' -v .

# Fault-injection suite (DESIGN.md §8): every wired fault site — sched
# workers, the memctrl block router and bank jobs — the trace readers'
# read-error propagation, plus the checkpoint/resume acceptance tests that
# kill a sweep with an injected fault and require byte-identical resumed
# output.
bench-fault:
	$(GO) test -run 'FaultInject|Checkpoint' -v ./internal/faultinject ./internal/sched ./internal/memctrl ./internal/trace ./internal/sim ./cmd/rhsweep

# Replay hot-path gate (DESIGN.md §9): the testing.AllocsPerRun tests
# assert the steady-state ACT loop allocates exactly zero, then the
# microbenchmarks run once with -benchmem and rhbench converts the output
# to machine-readable BENCH_hotpath.json, re-asserting 0 allocs/op on
# every hot-path bench (including the per-trigger-cycle one that caught
# the 7 allocs/op the pre-append API hid under integer rounding).
bench-hotpath:
	$(GO) test -run 'TestReplayHotPathZeroAlloc' ./internal/memctrl
	$(GO) test -run xxx -bench 'BenchmarkHotPath' -benchtime 1000x -benchmem ./internal/memctrl | $(GO) run ./cmd/rhbench -o BENCH_hotpath.json -assert-zero-allocs 'BenchmarkHotPath'

# Trace codec gate: parse+replay-ingest cost per ACT for the text vs
# binary formats, recorded to machine-readable BENCH_trace.json, with
# rhbench enforcing the ≥10x parse-throughput target on decode-blocks
# (BlockReader.NextCols, the only block decoder and what replay ingests)
# vs the text parser.
bench-trace:
	$(GO) test -run xxx -bench 'BenchmarkTraceCodec' -benchtime 5x -count 3 ./internal/trace | $(GO) run ./cmd/rhbench -o BENCH_trace.json -assert-speedup 'decode-blocks:parse-text:10'

# Batched replay gate (DESIGN.md §11): the zero-alloc test pins the batch
# core's steady state at exactly 0 allocations, then the engine pair
# benchmarks (identical ACT runs through the scalar replayOne loop vs the
# batched replayRun) and the all-banks aggregate pair (buffered per-ACT
# replay vs columnar RunBlocks ingest) record single-bank and aggregate
# ACT/s into BENCH_replay.json. rhbench asserts the floors: ≥3x
# batch-vs-scalar on trigger-light replay, on DDR4 and on DDR5 (where the
# batch walk also stops at every RFM), ≥1.3x end-to-end aggregate, and 0
# allocs/op on every batch engine bench. The CRA pairs (BenchmarkReplayCRA:
# cache-resident rows, and rows that miss CRA's counter cache on every
# ACT) are recorded but not gated: CRA's own cache work dominates them and
# swings ±20% run to run, so TestExtraTrafficWalkBounded pins the walk
# length that decides their cost instead.
bench-replay:
	$(GO) test -run 'TestReplayBatchZeroAlloc|TestExtraTrafficWalkBounded' ./internal/memctrl
	$(GO) test -run xxx -bench 'BenchmarkReplay(Engine|CRA)' -benchtime 500x -count 3 -benchmem ./internal/memctrl > BENCH_replay.txt
	$(GO) test -run xxx -bench 'BenchmarkReplayAggregate' -benchtime 3x -count 3 -benchmem ./internal/memctrl >> BENCH_replay.txt
	$(GO) run ./cmd/rhbench -i BENCH_replay.txt -o BENCH_replay.json -assert-speedup 'ReplayEngine/batch-trigger-light:ReplayEngine/scalar-trigger-light:3'
	$(GO) run ./cmd/rhbench -i BENCH_replay.txt -o /dev/null -assert-speedup 'ReplayEngine/batch-ddr5-trigger-light:ReplayEngine/scalar-ddr5-trigger-light:3'
	$(GO) run ./cmd/rhbench -i BENCH_replay.txt -o /dev/null -assert-speedup 'batch-allbanks:scalar-allbanks:1.3'
	$(GO) run ./cmd/rhbench -i BENCH_replay.txt -o /dev/null -assert-zero-allocs 'BenchmarkReplayEngine/batch'
	rm -f BENCH_replay.txt

# RowPress dwell-column gate (DESIGN.md §13): the dwell-carrying zero-alloc
# legs pin the columnar dwell path at exactly 0 allocations, then the
# BenchmarkReplayRowpress pair replays identical semantic work (an all-nRAS
# dwell column means every increment is 1 and every ActCycle equals tRC)
# with and without the column, so the ratio prices carrying and weighing
# the column alone. rhbench asserts dwell ≥ 0.8x plain and 0 allocs/op.
bench-rowpress:
	$(GO) test -run 'TestReplayBatchZeroAlloc/.*dwell' ./internal/memctrl
	$(GO) test -run xxx -bench 'BenchmarkReplayRowpress' -benchtime 500x -count 3 -benchmem ./internal/memctrl > BENCH_rowpress.txt
	$(GO) run ./cmd/rhbench -i BENCH_rowpress.txt -o BENCH_rowpress.json -assert-speedup 'ReplayRowpress/dwell:ReplayRowpress/plain:0.8'
	$(GO) run ./cmd/rhbench -i BENCH_rowpress.txt -o /dev/null -assert-zero-allocs 'BenchmarkReplayRowpress'
	rm -f BENCH_rowpress.txt

# Serving-path gate (DESIGN.md §12): one benchmark pair replays the same
# 8-tenant x 8-bank x 1M-ACT aggregate directly through memctrl.RunBlocks
# and through a live rhsimd-style TCP daemon (frame encode, wire decode,
# per-tenant replay, report round trip). rhbench asserts the ISSUE 8
# floors on the serve side: within 2x of the direct path, ≥10M ACT/s
# aggregate, and bounded memory (≤16 bytes/ACT across client+server, so
# any per-ACT allocation on the hot path fails the gate).
#
# The serve-resumable leg replays the same sessions with report_every 1
# into a checkpoint journal, so every segment is journaled on the replay
# router before its partial report: it must keep ≥0.75x of serve-aggregate
# and ≤18 bytes/ACT (the journal is indexed by file offset, never held in
# memory).
#
# The multi-shard leg pins the scale-out claim: 8 single-bank tenants on
# 4 worker shards vs 1. On a ≥4-core runner shards-4 must be ≥2x faster;
# a smaller runner cannot scale, so the gate degrades to parity (≥0.85x,
# i.e. shard scheduling itself must not cost throughput) — the same
# adaptive discipline the sweep gate uses for jobs-1 vs jobs-max.
bench-serve:
	$(GO) test -run xxx -bench 'BenchmarkServePath' -benchtime 1x -count 3 ./internal/serve > BENCH_serve.txt
	$(GO) test -run xxx -bench 'BenchmarkServeShards' -benchtime 1x -count 3 ./internal/serve >> BENCH_serve.txt
	$(GO) run ./cmd/rhbench -i BENCH_serve.txt -o BENCH_serve.json -assert-speedup 'serve-aggregate:direct-aggregate:0.5'
	$(GO) run ./cmd/rhbench -i BENCH_serve.txt -o /dev/null -assert-min 'serve-aggregate:acts/s:10000000'
	$(GO) run ./cmd/rhbench -i BENCH_serve.txt -o /dev/null -assert-max 'serve-aggregate:b/act:16'
	$(GO) run ./cmd/rhbench -i BENCH_serve.txt -o /dev/null -assert-speedup 'serve-resumable:serve-aggregate:0.75'
	$(GO) run ./cmd/rhbench -i BENCH_serve.txt -o /dev/null -assert-max 'serve-resumable:b/act:18'
	@if [ "$$(nproc)" -ge 4 ]; then \
		$(GO) run ./cmd/rhbench -i BENCH_serve.txt -o /dev/null -assert-speedup 'ServeShards/shards=4:ServeShards/shards=1:2'; \
	else \
		echo "bench-serve: $$(nproc)-core runner: asserting shard parity instead of 2x scale-out"; \
		$(GO) run ./cmd/rhbench -i BENCH_serve.txt -o /dev/null -assert-speedup 'ServeShards/shards=4:ServeShards/shards=1:0.85'; \
	fi
	rm -f BENCH_serve.txt

# Race detector over the packages with concurrent replay — the block
# router behind every memctrl.Run and RunBlocks, the per-bank goroutines,
# the sweep pool, the daemon and its load generator, the sweep CLI — plus
# the fuzz seed corpora of those packages, which run as regular tests
# here. Three runs each, so a test that fails only
# sometimes fails here rather than in a later tier-1 run. -short skips the
# tens-of-seconds full-scale run, which would dominate `make check` under
# the race detector's overhead.
race:
	$(GO) test -race -short -count=3 ./internal/faultinject/... ./internal/memctrl/... ./internal/sim/... ./internal/sched/... ./internal/mitigation/... ./internal/trace/... ./internal/serve/... ./internal/obs/... ./cmd/rhsimd/... ./cmd/rhload/... ./cmd/rhsweep/...

# Short exploratory fuzz passes over the core invariants.
# Two targets run costly inputs: FuzzGrapheneSoundThroughController
# replays tens of thousands of ACTs per input whatever the input's
# length, and FuzzTableMatchesReference compares every view of tables up
# to 160 entries after each step. Go's default 60 s minimization of each
# new input used up most of their 30 s budgets (most progress reports
# read 0 execs/s), so they minimize with at most 100 runs.
fuzz:
	$(GO) test ./internal/graphene -fuzz=FuzzTableInvariants -fuzztime=30s -run xxx
	$(GO) test ./internal/graphene -fuzz=FuzzBankNeverMissesTheorem -fuzztime=30s -run xxx
	$(GO) test ./internal/graphene -fuzz=FuzzTableMatchesReference -fuzztime=30s -fuzzminimizetime=100x -run xxx
	$(GO) test ./internal/graphene -fuzz=FuzzBatchAppend -fuzztime=30s -run xxx
	$(GO) test ./internal/graphene -fuzz=FuzzObserveWMatchesUnits -fuzztime=30s -run xxx
	$(GO) test ./internal/trace -fuzz=FuzzBinaryReader -fuzztime=30s -run xxx
	$(GO) test ./internal/trace -fuzz=FuzzReadFrom -fuzztime=30s -run xxx
	$(GO) test ./internal/trace -fuzz=FuzzWriteName -fuzztime=30s -run xxx
	$(GO) test ./internal/memctrl -fuzz=FuzzStreamingMatchesBuffered -fuzztime=30s -run xxx
	$(GO) test ./internal/hammer -fuzz=FuzzOracleRunMatchesDense -fuzztime=30s -run xxx
	$(GO) test ./internal/sim -fuzz=FuzzGrapheneSoundThroughController -fuzztime=30s -fuzzminimizetime=100x -run xxx
	$(GO) test ./internal/serve -fuzz=FuzzWireSession -fuzztime=30s -run xxx

# Fuzz-target guard: every `func Fuzz…` in a tracked test file must have a
# line in the fuzz recipe above (same package directory, same name), so a
# new target cannot silently stay out of `make fuzz`. Prints what is missing.
fuzz-list:
	@have="$$($(MAKE) -s --no-print-directory -n fuzz | sed -n 's|.* test \([^ ]*\) -fuzz=\([A-Za-z0-9_]*\) .*|\1 \2|p')"; \
	missing=$$(git ls-files '*_test.go' | while read -r f; do \
		grep -o '^func Fuzz[A-Za-z0-9_]*' "$$f" | sed "s|^func |./$$(dirname "$$f") |"; \
	done | while read -r want; do \
		printf '%s\n' "$$have" | grep -qxF "$$want" || echo "$$want"; \
	done); \
	if [ -n "$$missing" ]; then echo "make fuzz does not run:"; echo "$$missing"; exit 1; fi

tables:
	$(GO) run ./cmd/rhtables -all

security:
	$(GO) run ./cmd/rhsecurity

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/attack
	$(GO) run ./examples/scaling
	$(GO) run ./examples/nonadjacent
	$(GO) run ./examples/pagepolicy
	$(GO) run ./examples/observability

check: fmt fuzz-list inline build vet test race bench-sweep bench-fault bench-hotpath bench-trace bench-replay bench-rowpress bench-serve
