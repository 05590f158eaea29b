# Developer entry points. `make check` is the full verification gate the CI
# workflow runs: vet plus the race-enabled test suite. `make lint` is the
# static-analysis gate: gofmt, nepvet over the repo, and the known-bad
# fixtures that prove the gate can fail.

GO ?= go

.PHONY: build vet test race check lint analyze fuzz bench bench-obs bench-serve bench-baseline bench-gate profile serve-smoke timeline-smoke assert-smoke results-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The suite is race-clean; -race is the acceptance mode for the concurrent
# metrics registry and the parallel sweep engine.
race:
	$(GO) test -race ./...

check: vet race

# Static analysis: gofmt must be a no-op, nepvet must find nothing in the
# tree (modulo lint.allow), and the deliberately-bad fixtures must fail red.
lint: analyze
	@fmtout=$$(gofmt -l . 2>/dev/null); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needs to run on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) run ./cmd/nepvet
	sh scripts/lint_fixtures.sh

# Semantic static analysis of every shipped LOC formula profile: interval
# verdicts, vacuity against the default chip's event vocabulary, tautology/
# contradiction/subsumption. locheck exits 3 on any finding.
analyze:
	@set -e; for f in profiles/*.loc examples/*/*.loc; do \
		[ -e "$$f" ] || continue; \
		echo "locheck -analyze $$f"; \
		$(GO) run ./cmd/locheck -analyze -f "$$f"; \
	done

# Short fuzz smoke over the binary-trace parser, the text-trace line
# formatter, its number formatting against strconv, the in-place text-trace
# parser against its strings.Fields oracle, the LOC front end and the two
# lint pipelines; CI runs the same budget.
# Leave -fuzztime off for a real fuzzing session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzBinaryReader -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzTextLine -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzAppendNumber -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzTextLineVsReader -fuzztime=$(FUZZTIME) ./internal/loc/rt/
	$(GO) test -fuzz=FuzzLOCLexer -fuzztime=$(FUZZTIME) ./internal/loc/
	$(GO) test -fuzz=FuzzLOCParse -fuzztime=$(FUZZTIME) ./internal/loc/
	$(GO) test -fuzz=FuzzFormulaLint -fuzztime=$(FUZZTIME) ./internal/loc/
	$(GO) test -fuzz=FuzzWitnessRender -fuzztime=$(FUZZTIME) ./internal/loc/
	$(GO) test -fuzz=FuzzAnalyzeVsVM -fuzztime=$(FUZZTIME) ./internal/loc/
	$(GO) test -fuzz=FuzzAsmLint -fuzztime=$(FUZZTIME) ./internal/isa/
	$(GO) test -fuzz=FuzzPolicyValidate -fuzztime=$(FUZZTIME) ./internal/policy/

# Single-shot bench sweeps: quick numbers, too noisy to gate on (use
# bench-gate for that).
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# Like bench, but writes the trajectory (internal/perf schema) plus
# aggregated per-run metrics to BENCH_obs.json.
bench-obs:
	$(GO) test -bench=. -benchtime=1x -run '^$$' -benchobs BENCH_obs.json .

# Exploration-service benchmarks (cache-hit latency, HTTP throughput), with
# trajectory samples and service counters written to BENCH_serve.json.
bench-serve:
	$(GO) test -bench='BenchmarkCacheHit|BenchmarkServerThroughput' -benchtime=10x -run '^$$' -benchserve BENCH_serve.json .

# The regression gate (DESIGN.md §14). GATE_BENCHES covers the heaviest
# end-to-end paths — the Figure 6 pipeline, the idle study, the shared §4.1
# sweep — plus the registry-policy tick hot path, the streaming LOC
# checker with witness capture, the trace write path (a pipeline-event
# run through the text and NPT1 writers) and the trace read path (that
# recording replayed from each format through both profiles). GATE_COUNT repeats give the
# trajectory medians their noise immunity; GATE_THRESHOLD is deliberately
# generous because CI machines vary — the gate exists to catch
# order-of-magnitude mistakes (accidental O(n²), a dropped cache), not 10% drift.
GATE_BENCHES ?= BenchmarkFig6$$|BenchmarkIdleStudy$$|BenchmarkTDVSSweep$$|BenchmarkPolicyTick$$|BenchmarkLOCCheck$$|BenchmarkTraceRecord$$|BenchmarkTraceReplay$$
GATE_COUNT ?= 5
GATE_CYCLES ?= 200000
GATE_THRESHOLD ?= 40
GATE_MIN_SAMPLES ?= 3

# Refresh the committed baseline (commit the result; see DESIGN.md §14 for
# when a refresh is legitimate).
bench-baseline:
	$(GO) test -bench='$(GATE_BENCHES)' -benchtime=1x -count=$(GATE_COUNT) -run '^$$' \
		-benchcycles $(GATE_CYCLES) -benchperf BENCH_sim.json .

# Re-measure the gate benches and diff against the committed baseline;
# fails (exit 3) on a gated regression. Set BENCH_GATE_SKIP=1 to skip
# (e.g. on a known-slow host).
bench-gate:
ifdef BENCH_GATE_SKIP
	@echo "bench-gate: skipped (BENCH_GATE_SKIP set)"
else
	$(GO) test -bench='$(GATE_BENCHES)' -benchtime=1x -count=$(GATE_COUNT) -run '^$$' \
		-benchcycles $(GATE_CYCLES) -benchperf BENCH_gate.json .
	$(GO) run ./cmd/benchdiff -threshold $(GATE_THRESHOLD) -min-samples $(GATE_MIN_SAMPLES) \
		BENCH_sim.json BENCH_gate.json
endif

# Capture cpu/mem profiles of a representative heavy run into the
# gitignored profiles/ directory, with -perf throughput printed alongside.
PROFILE_CYCLES ?= 2000000
profile:
	mkdir -p profiles
	$(GO) run ./cmd/nepsim -bench ipfwdr -level high -policy tdvs -threshold 1000 -window 40000 \
		-cycles $(PROFILE_CYCLES) -perf -cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof

# End-to-end service smoke: boot dvsd with a cache, run one uncached and one
# cached sweep, assert the cache hit counter and byte-identical artifacts.
serve-smoke:
	sh scripts/serve_smoke.sh

# Timeline smoke: a ~1k-packet nepsim -timeline run validated with
# timelinecheck (spans on every ME track, byte-identical across reruns) plus
# a tracestat -json/-timeline round trip.
timeline-smoke:
	sh scripts/timeline_smoke.sh

# Assertion smoke: a deliberately violating LOC preset driven through nepsim
# and locheck, validating the report JSON schema, byte-identity of the
# VM-evaluated and locgen-generated witness reports (the preset and every
# formula of the shipped profiles), assertion instants in the timeline, and
# rerun determinism.
assert-smoke:
	sh scripts/assert_smoke.sh

# Results byte-identity: regenerate every paper-scale report into a temp
# dir with a checkpoint, then resume a second exploration from that
# checkpoint (it must simulate nothing), and require both outputs to match
# the committed results/ exactly. The manifest is excluded from the diff
# because it records host wall time; its run count must still match the
# fresh exploration's.
results-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/dvsexplore" ./cmd/dvsexplore && \
	"$$tmp/dvsexplore" -outdir "$$tmp/a" -checkpoint "$$tmp/ck" -quiet all >/dev/null && \
	want=$$(grep -o '"experiments_runs_completed": [0-9]*' results/manifest.json) && \
	got=$$(grep -o '"experiments_runs_completed": [0-9]*' "$$tmp/a/manifest.json") && \
	{ [ "$$got" = "$$want" ] || { echo "results-check: fresh manifest has $$got, results/manifest.json has $$want"; exit 1; }; } && \
	"$$tmp/dvsexplore" -outdir "$$tmp/b" -checkpoint "$$tmp/ck" -quiet all >/dev/null 2>&1 && \
	grep -q '"experiments_runs_completed": 0,' "$$tmp/b/manifest.json" && \
	diff -r -x manifest.json "$$tmp/a" results && \
	diff -r -x manifest.json "$$tmp/b" results
