# Targets mirror .github/workflows/ci.yml one-for-one, so a green `make ci`
# locally means a green pipeline.

GO ?= go

# The benchmark-smoke selection (verified against go test's slash-split
# -bench matching): Phase1LP, WorkspaceReuse/*, PoolThroughput/*,
# Phase2List (List$ matches its suffix; 27us, harmless), the phase-2
# profile scheduler at large n (BenchmarkList/*), and the retained
# reference implementation on its layered scenarios only — the reference
# on the erdos and saturated scenarios takes minutes per run and stays
# local-only (go test -bench ListReference .).
BENCH_SMOKE = Phase1LP|WorkspaceReuse|PoolThroughput|List$$|ListReference/layered

# The benchmarks the CI regression gate fails on (>25% ns/op growth vs the
# previous push's baseline): the phase-1 LP scenarios — auto-routed
# layered_n500_m32 and erdos_n500_m48 (min-cut), the deep_n400_m64 pair
# (auto vs the lazy pin) and deep_n2000_m64 (auto, lazy), and the min-cut
# sweep pinned at n=2000 and auto-routed at n=10000 — the phase-2 profile
# scheduler scenarios, and the serving paths — both the v1 solve/cache path (BenchmarkServe)
# and the v2 delta re-solve path (BenchmarkServeDelta, whose
# delta_warm/delta_cold counters benchgate shows next to the timings).
# Deliberately excludes the micro-benchmarks (Phase2List at 27us would
# gate on scheduler jitter).
BENCH_KEY = BenchmarkPhase1LP/|BenchmarkList/|BenchmarkServe/|BenchmarkServeDelta/

.PHONY: all build test race bench-module linkcheck bench bench-json bench-gate chaos cover lint lint-selftest staticcheck govulncheck fuzz-smoke ci testdata

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The end-to-end benchmark lives in its own module (perfbench/), which the
# root `./...` patterns skip: vet and test it here, so an internal API
# change that breaks it fails CI instead of the next benchmark run.
bench-module:
	cd perfbench && $(GO) vet . && $(GO) test .

# The tests' oracles — the dense tableau, LP (10), the reference and
# lazy-heap LIST schedulers — sit in production packages, but no
# production path may call them. The linker drops unreferenced code, so
# an oracle symbol in either shipped binary means a production caller.
# It fails closed: a build or nm error, or a symbol table without
# main.main, is a failure, not an empty match.
linkcheck:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/" ./cmd/malschedd ./cmd/malsched; \
	for b in malschedd malsched; do \
		$(GO) tool nm "$$dir/$$b" > "$$dir/$$b.nm"; \
		grep -q ' T main\.main$$' "$$dir/$$b.nm" || { echo "linkcheck: no main.main in $$b's symbols" >&2; exit 1; }; \
		if grep -F "$$dir/$$b.nm" \
			-e 'malsched/internal/lp.(*Problem).SolveDense' \
			-e 'malsched/internal/allot.SolveLPReference' \
			-e 'malsched/internal/allot.SolveLP10' \
			-e 'malsched/internal/listsched.RunReference' \
			-e 'malsched/internal/listsched.RunLazyHeap' >&2; then \
			echo "linkcheck: $$b links the test-only oracles above" >&2; exit 1; \
		fi; \
	done; \
	echo "linkcheck: no oracle linked into malschedd or malsched"

# The CI smoke job runs the same benchmarks with -benchtime=1x; locally the
# default benchtime gives stable numbers.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_SMOKE)' -benchmem .

# Machine-readable benchmark records, one file per subsystem (seed copies
# are committed so the repo's bench trajectory has a baseline; CI uploads
# fresh ones per push and gates on them, see bench-gate). The files are
# go test -json streams; the Output fields carry the standard benchmark
# lines, so `jq -r 'select(.Action=="output").Output' | benchstat -` feeds
# them straight into benchstat, and cmd/benchgate parses them directly.
bench-json:
	$(GO) test -run '^$$' -bench 'Phase1LP|Phase1Reference/erdos|WorkspaceReuse' -benchtime=1x -benchmem -json . > BENCH_phase1.json
	$(GO) test -run '^$$' -bench 'List$$|ListReference/layered' -benchtime=1x -benchmem -json . > BENCH_phase2.json
	$(GO) test -run '^$$' -bench 'Serve' -benchtime=1x -benchmem -json ./internal/server > BENCH_serve.json

# Benchmark-regression gate: compare the current bench-json records against
# the previous run's copies in bench-baseline/ (CI restores that directory
# from the previous push via actions/cache; locally: mkdir bench-baseline &&
# cp BENCH_*.json bench-baseline/ before changing code). Missing baseline
# files seed instead of failing.
bench-gate:
	@for f in BENCH_phase1.json BENCH_phase2.json BENCH_serve.json; do \
		$(GO) run ./cmd/benchgate -baseline bench-baseline/$$f -current $$f \
			-key '$(BENCH_KEY)' -threshold 1.25 || exit 1; \
	done

# Fault-injection chaos run: the full loadgen-shaped workload at 500
# concurrent clients under the race detector, with every fault point armed
# at its CI rate and a fixed seed (the fault pattern is deterministic, so a
# red run reproduces bit-for-bit with the same seed). Mirrors the CI chaos
# job. Override the knobs like: make chaos CHAOS_CLIENTS=100 CHAOS_SEED=7
CHAOS_CLIENTS ?= 500
CHAOS_REQUESTS ?= 4
CHAOS_SEED ?= 1
chaos:
	$(GO) test -race -count=1 -run '^TestChaos$$' -v ./internal/server \
		-chaos.clients=$(CHAOS_CLIENTS) -chaos.requests=$(CHAOS_REQUESTS) -chaos.seed=$(CHAOS_SEED)

# Coverage profile + per-package summary + the internal/server floor the CI
# coverage job enforces (soft there, hard here). The extraction demands
# exactly one internal/server coverage line: zero means the package was
# skipped or renamed (a floor silently comparing "" >= 70 would pass), more
# than one means the grep is matching something it shouldn't — either way
# the target fails loudly instead of green-lighting garbage.
cover:
	$(GO) test -coverprofile=cover.out ./... > coverage.txt || { cat coverage.txt; exit 1; }
	@cat coverage.txt
	$(GO) tool cover -func=cover.out | tail -1
	@lines=$$(grep -o 'malsched/internal/server[[:space:]].*coverage: [0-9.]*' coverage.txt || true); \
	n=$$(printf '%s\n' "$$lines" | grep -c 'coverage:' || true); \
	if [ "$$n" -ne 1 ]; then \
		echo "cover: expected exactly one internal/server coverage line, found $$n" >&2; exit 1; \
	fi; \
	pct=$$(printf '%s\n' "$$lines" | grep -o '[0-9.]*$$'); \
	echo "internal/server coverage: $$pct%"; \
	awk -v p="$$pct" 'BEGIN { exit !(p >= 70) }' || { echo "internal/server below 70% floor" >&2; exit 1; }

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/malschedvet ./...

# Proves the lint gate can actually fail: the malschedvet self-tests build a
# scratch module, inject a known violation, and assert a nonzero exit (plus
# the clean-module and clean-repo passes). CI runs this next to lint so a
# silently-broken analyzer suite cannot keep rubber-stamping pushes.
lint-selftest:
	$(GO) test -count=1 ./cmd/malschedvet ./internal/analysis/...

# staticcheck runs when the binary is available (CI installs it; locally:
# go install honnef.co/go/tools/cmd/staticcheck@2024.1.1) and is skipped
# with a notice otherwise, so offline machines still get a green make ci.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (see Makefile for install hint)"; \
	fi

# govulncheck mirrors the staticcheck pattern: run when installed (locally:
# go install golang.org/x/vuln/cmd/govulncheck@latest), skip with a notice
# otherwise so offline machines still get a green make ci.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (see Makefile for install hint)"; \
	fi

# Short deterministic fuzz pass over the parsing/quantization surfaces,
# the v2 HTTP edge (FuzzServeV2: arbitrary /v2/solve and /v2/batch bodies
# never get a 500), the request decoder (FuzzDecodeV2: the same error
# and value as encoding/json on every body), its number conversions
# (FuzzDecodeNumber: the same decision and float64 bits as strconv on
# every token), the min-cut sweep
# (FuzzSweep: random crashing networks, the source-side tree audited
# after every join and repair, each answer checked against its
# network and against its project-crashing LP solved by internal/lp)
# and the lazy simplex (FuzzLP: random bounded LPs through the cut
# loop's solve, append, re-solve and polish, checked against a fresh
# solve and the dense tableau, then hot-started on edited numbers);
# the corpora under testdata/fuzz (if any) plus 10s of
# generated inputs each. Mirrors the CI fuzz-smoke step. Longer local
# sessions: go test -fuzz FuzzQuantize -fuzztime 5m .
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseAlgorithm$$' -fuzztime=10s .
	$(GO) test -run '^$$' -fuzz '^FuzzParseFormulation$$' -fuzztime=10s .
	$(GO) test -run '^$$' -fuzz '^FuzzQuantize$$' -fuzztime=10s .
	$(GO) test -run '^$$' -fuzz '^FuzzServeV2$$' -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeV2$$' -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNumber$$' -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzSweep$$' -fuzztime=10s ./internal/flow
	$(GO) test -run '^$$' -fuzz '^FuzzLP$$' -fuzztime=10s ./internal/lp

ci: lint lint-selftest staticcheck govulncheck build linkcheck race bench-module fuzz-smoke chaos
	$(GO) test -run '^$$' -bench '$(BENCH_SMOKE)' -benchtime=1x -benchmem .

# Regenerate the canned instances under testdata/ (families x machine sizes
# used by TestCannedInstances and the pool tests).
testdata:
	$(GO) run ./cmd/geninstance -dag chain -family powerlaw -n 10 -m 4 -seed 101 > testdata/chain_n10_m4.json
	$(GO) run ./cmd/geninstance -dag chain -family mixed -n 12 -m 16 -seed 102 > testdata/chain_n12_m16.json
	$(GO) run ./cmd/geninstance -dag forkjoin -family amdahl -n 10 -m 4 -seed 103 > testdata/forkjoin_n10_m4.json
	$(GO) run ./cmd/geninstance -dag forkjoin -family mixed -n 14 -m 16 -seed 104 > testdata/forkjoin_n14_m16.json
	$(GO) run ./cmd/geninstance -dag erdos -family mixed -n 12 -m 4 -p 0.25 -seed 105 > testdata/erdos_n12_m4.json
	$(GO) run ./cmd/geninstance -dag erdos -family random -n 16 -m 16 -p 0.2 -seed 106 > testdata/erdos_n16_m16.json
	$(GO) run ./cmd/geninstance -dag layered -family mixed -n 12 -m 8 -seed 107 > testdata/layered_n12_m8.json
	$(GO) run ./cmd/geninstance -dag layered -family mixed -n 24 -m 8 -seed 108 > testdata/layered_n24_m8.json
	$(GO) run ./cmd/geninstance -dag erdos -family mixed -n 32 -m 16 -p 0.15 -seed 109 > testdata/erdos_n32_m16.json
	$(GO) run ./cmd/geninstance -dag independent -family mixed -n 64 -m 8 -seed 110 > testdata/independent_n64_m8.json
