# Standard checks for the PokeEMU reproduction. `make check` is the full
# gate: gofmt, build, vet (the benchmark module too), tests, the race
# detector over every package, the chaos matrix, and the daemon smoke run.

GO ?= go
FUZZTIME ?= 30s
CHAOS_SEEDS ?= 10
SERVE_ADDR ?= 127.0.0.1:8344
SERVE_CORPUS ?= .pokeemud-corpus

# Per-package statement-coverage floors enforced by `make cover`
# (package:floor pairs; floors sit a few points under current coverage so
# routine edits pass but a dropped test file fails).
COVER_FLOORS ?= triage:85 diff:90 equivcheck:85 coverage:90 hybrid:85 lento:90 solver:90 celer:78 fanout:95 corpus:74 core:80 fidelis:78 ir:75 service:94

.PHONY: fmt build vet benchvet test race fuzz chaos cover bench bench-gate serve smoke equivcheck hybrid vote solvercheck check

# Formatting gate: fail if any Go file in the tree is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "fmt: not gofmt-clean:" >&2; echo "$$out" >&2; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The benchmark harness (perfbench/) is a separate module, so `build` and
# `vet` never compile it; vet it on its own so an API change it depends on
# fails here rather than in the benchmark run.
benchvet:
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

# The campaign package runs multi-second integration tests; under the race
# detector they slow by ~10x, hence the generous timeout.
race:
	$(GO) test -race -timeout 30m ./...

# The seventeen native fuzz targets: the instruction decoder's structural
# invariants, the expression simplifier's soundness, the minimizer's
# incremental cone evaluation vs evaluation from scratch, the bit-blaster vs
# evaluator semantics oracle, the SAT core's arena-compaction integrity and
# restart determinism, the fault-injection spec parser, the triage
# minimizer's shrink/signature-preservation invariants, the equivcheck
# verdict vs concrete-differential oracle, the hybrid mutator's
# atom-discipline/aliasing/determinism invariants, the lento interpreter vs
# evaluator/bit-blaster ALU oracle, the snapshot decoder's hostile-input
# and re-encode round-trip invariants, page-granular memory access and
# code fetch vs a byte-at-a-time reference, the corpus exec and instr
# record decoders' hostile-input and canonical round-trip invariants,
# pokeemud's submit-body decoding and request normalization, and the
# baseline decoder behind PUT /v1/baseline (round trip, distinct entries).
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/x86
	$(GO) test -fuzz=FuzzExprSimplify -fuzztime=$(FUZZTIME) ./internal/expr
	$(GO) test -fuzz=FuzzConeEval -fuzztime=$(FUZZTIME) ./internal/symex
	$(GO) test -fuzz=FuzzSemanticsOracle -fuzztime=$(FUZZTIME) ./internal/solver
	$(GO) test -fuzz=FuzzArenaCompact -fuzztime=$(FUZZTIME) ./internal/solver
	$(GO) test -fuzz=FuzzLubyRestart -fuzztime=$(FUZZTIME) ./internal/solver
	$(GO) test -fuzz=FuzzFaultSpec -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -fuzz=FuzzTriageMinimize -fuzztime=$(FUZZTIME) ./internal/triage
	$(GO) test -fuzz=FuzzVsOracle -fuzztime=$(FUZZTIME) ./internal/equivcheck
	$(GO) test -fuzz=FuzzMutator -fuzztime=$(FUZZTIME) ./internal/hybrid
	$(GO) test -fuzz=FuzzLentoVsEval -fuzztime=$(FUZZTIME) ./internal/lento
	$(GO) test -fuzz=FuzzReadSnapshot -fuzztime=$(FUZZTIME) ./internal/machine
	$(GO) test -fuzz=FuzzMemoryAccess -fuzztime=$(FUZZTIME) ./internal/machine
	$(GO) test -fuzz=FuzzDecodeExecEntry -fuzztime=$(FUZZTIME) ./internal/corpus
	$(GO) test -fuzz=FuzzDecodeInstrEntry -fuzztime=$(FUZZTIME) ./internal/corpus
	$(GO) test -fuzz=FuzzSubmitRequest -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -fuzz=FuzzDecodeBaseline -fuzztime=$(FUZZTIME) ./internal/triage

# Chaos gate: the fault-injection matrix under the race detector, sweeping
# a fixed seed range (CHAOS_SEEDS plans per fault mix). Every armed fault
# must degrade the campaign deterministically — byte-identical reports
# across worker counts — never hang it, crash it, or shorten its report.
chaos:
	$(GO) test -race -timeout 30m -run 'TestChaos' ./internal/campaign -chaos-seeds=$(CHAOS_SEEDS)
	$(GO) test -race -run 'TestSchedulerFault|TestDegradedReport' ./internal/service

# Coverage gate: measure statement coverage for each package listed in
# COVER_FLOORS and fail if any falls below its floor.
cover:
	@set -e; for pair in $(COVER_FLOORS); do \
		pkg=$${pair%%:*}; floor=$${pair##*:}; \
		profile=$$(mktemp); \
		$(GO) test -coverprofile=$$profile ./internal/$$pkg >/dev/null; \
		pct=$$($(GO) tool cover -func=$$profile | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		rm -f $$profile; \
		echo "cover: internal/$$pkg $$pct% (floor $$floor%)"; \
		awk "BEGIN { exit !($$pct >= $$floor) }" || \
			{ echo "cover: internal/$$pkg below floor" >&2; exit 1; }; \
	done

bench:
	$(GO) test -bench=. -benchmem .

# Performance gate: one cold E11 benchmark run must land within
# BENCH_TOLERANCE percent of the checked-in w1-ms baseline, so a solver or
# dispatch change that silently gives back the fast-path/batching win fails
# the build the same way a broken test does. The band absorbs shared-host
# noise while still catching a slide back toward the pre-fast-path cost
# (37.2s seed vs the current baseline). Re-baseline by putting a fresh
# quiet-machine measurement in bench_baseline.txt.
BENCH_TOLERANCE ?= 35

bench-gate:
	@set -e; \
	base=$$(awk '$$1 == "w1-ms" {print $$2}' bench_baseline.txt); \
	[ -n "$$base" ] || { echo "bench-gate: no w1-ms entry in bench_baseline.txt" >&2; exit 1; }; \
	out=$$($(GO) test -run xxx -bench BenchmarkE11ColdExplore -benchtime 1x .); \
	echo "$$out"; \
	w1=$$(echo "$$out" | awk '{for (i = 1; i < NF; i++) if ($$(i+1) == "w1-ms") print $$i}'); \
	[ -n "$$w1" ] || { echo "bench-gate: no w1-ms metric in benchmark output" >&2; exit 1; }; \
	ceil=$$(awk "BEGIN { printf \"%d\", $$base * (100 + $(BENCH_TOLERANCE)) / 100 }"); \
	echo "bench-gate: w1-ms $$w1 (baseline $$base, ceiling $$ceil)"; \
	awk "BEGIN { exit !($$w1 <= $$ceil) }" || \
		{ echo "bench-gate: w1-ms $$w1 exceeds ceiling $$ceil" >&2; exit 1; }

# Run the campaign daemon in the foreground (SIGINT/SIGTERM drain
# gracefully, checkpointing running jobs into the shared corpus).
serve:
	$(GO) run ./cmd/pokeemud -addr $(SERVE_ADDR) -corpus $(SERVE_CORPUS)

# Self-contained daemon health gate: boots pokeemud on an ephemeral port,
# submits a tiny campaign over HTTP, asserts every endpoint answers 200,
# and shuts down gracefully.
smoke:
	$(GO) run ./cmd/pokeemud -smoke

# Symbolic disequivalence gate: prove the seeded handler subset under a
# pinned budget. Any UNKNOWN or any DIVERGES outside the pinned known set
# (the alias-encoding findings) fails the build.
equivcheck:
	$(GO) run ./cmd/pokeemu equivcheck -handlers gate -budget 200 \
		-gate -known internal/equivcheck/testdata/known_diverges.json

# Hybrid smoke gate: the short seeded coverage-guided fuzzing run pinned
# against its report golden, plus the worker-count determinism tests, all
# under the race detector.
hybrid:
	$(GO) test -race -timeout 30m -run 'TestHybrid' ./internal/campaign ./internal/hybrid ./internal/service
	$(GO) test -race -run 'TestRunDeterministic|TestRunWithReseed' ./internal/hybrid

# Voting gate: the three-emulator majority-vote campaign pinned against its
# report golden, the blame-acceptance property (every majority verdict over
# the gate handler set blames celer, never fidelis or lento), worker-count
# determinism, and the vote-off byte-format guarantee — plus the diff-layer
# verdict unit tests, all under the race detector.
vote:
	$(GO) test -race -timeout 30m -run 'TestVote' ./internal/campaign ./internal/diff

# Solver self-verification gate: the differential harness (production CDCL
# configurations vs a frozen reference configuration vs an independent DPLL
# solver, over seeded random CNF and replayed campaign query workloads)
# under the race detector, with debug-build model validation switched on.
solvercheck:
	$(GO) test -race -timeout 10m ./internal/solver/...

check: fmt build vet benchvet test race chaos cover smoke equivcheck hybrid vote solvercheck bench-gate
