# DataSculpt-Go build/test entry points. `make ci` is the gate every
# change must pass; `make bench-grid` compares the serial and parallel
# experiment engines on the same grid.

GO ?= go

# Total statement coverage (as printed by `go tool cover -func`) must not
# drop below this floor, re-measured after the growth-loop PR landed
# (83.3% at the time). Raise it when coverage genuinely improves; never
# lower it to make ci pass.
COVERAGE_FLOOR = 83.0

.PHONY: ci vet build test race perfbench-check chaos grow-chaos grow-smoke stress fuzz-smoke cover-check metrics-lint bench bench-grid bench-json bench-smoke bench-seu-smoke bench-serve bench-serve-smoke bench-scale bench-scale-smoke clean

ci: vet build test race perfbench-check chaos grow-chaos grow-smoke stress fuzz-smoke cover-check metrics-lint bench-smoke bench-seu-smoke bench-serve-smoke bench-scale-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# the benchmark is a module of its own (perfbench/go.mod replaces
# datasculpt with this checkout), so `./...` above never builds it: vet
# and test it here, so an internal/ API change that breaks it fails ci
# instead of the next benchmark run
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# fault-injection grid under the race detector: a checkpointed chaos
# sweep is interrupted, resumed, and must render byte-identically
chaos:
	$(GO) test -race -run 'Chaos|LoadCheckpoint' -count=1 ./internal/experiment/

# growth-loop durability under the race detector: the online growth
# daemon is killed at every checkpoint boundary of a cycle (with the
# LLM degraded by seeded fault injection), restarted cold, and must
# resume to a byte-identical candidate bundle and journal row
grow-chaos:
	$(GO) test -race -run TestGrowthChaos -count=1 ./internal/growth/

# tiny end-to-end growth cycle over the Youtube split (wired into ci):
# boot the daemon with the growth loop attached, label real HTTP
# traffic into the capture reservoir, run one cycle, and check
# /v1/growth reports the outcome
grow-smoke:
	$(GO) test -run 'TestGrowthSmoke|TestDaemonGrowthEndToEnd' -count=1 ./internal/growth/ ./cmd/datasculptd/

# evaluation-engine determinism under the race detector: incremental
# vote-matrix appends, parallel EM, the SEU scoring engine, and a
# Parallelism: N vs 1 pipeline run must all be race-free and
# bit-identical
stress:
	$(GO) test -race -count=1 \
		-run 'Parallel|Incremental|ComputeStats|WarmStart|InterimCache|VoteMatrix|Chunks|For|Normalize|SEU' \
		./internal/par/ ./internal/lf/ ./internal/labelmodel/ ./internal/textproc/ ./internal/core/ ./internal/sampler/

# 30 seconds of coverage-guided fuzzing per target on the two parsers
# that face untrusted input: LLM completions and raw text. `go test
# -fuzz` accepts a single target per invocation, hence one run each.
fuzz-smoke:
	$(GO) test -run XXX -fuzz '^FuzzParseResponse$$' -fuzztime 30s ./internal/prompt/
	$(GO) test -run XXX -fuzz '^FuzzSelfConsistency$$' -fuzztime 30s ./internal/prompt/
	$(GO) test -run XXX -fuzz '^FuzzTokenize$$' -fuzztime 30s ./internal/textproc/

# total-coverage regression gate: fail if statement coverage drops below
# the recorded pre-PR baseline
cover-check:
	$(GO) test -coverprofile=/tmp/datasculpt-cover.out ./... > /dev/null
	@total=$$($(GO) tool cover -func=/tmp/datasculpt-cover.out | tail -1 | awk '{sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor: $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "FAIL: coverage $$total% is below the floor $(COVERAGE_FLOOR)%"; exit 1; }

# Prometheus text-format conformance: boot an in-process server with a
# registry exercising every exporter shape (vectors, escapes, overflow
# fold, histogram ladders), scrape its /metrics over HTTP, and fail on
# any violation a real scraper would reject. `metricslint -addr host`
# lints a live daemon the same way.
metrics-lint:
	$(GO) run ./cmd/metricslint

# full benchmark suite at reduced scale (one pass per table/figure)
bench:
	$(GO) test -bench . -benchtime=1x -run XXX -v .

# serial vs parallel wall-clock on the identical experiment grid
bench-grid:
	$(GO) test -bench=Grid -benchtime=1x -run XXX .

# Grid benchmarks with allocation stats, captured in the standard Go
# benchmark text format benchstat consumes (`benchstat BENCH_grid.json`).
# The pipeline engine benchmarks (full-run wall time + allocs for the
# uncertain/seu samplers on full-scale Agnews, sequential vs parallel)
# land in BENCH_pipeline.json; its committed copy also carries the
# pre-PR baseline lines (suffix PrePR) so benchstat can diff eras.
bench-json:
	$(GO) test -bench=Grid -benchtime=1x -benchmem -run XXX . | tee BENCH_grid.json
	$(GO) test -bench=Engine -benchtime=1x -benchmem -run XXX . | tee BENCH_pipeline.json

# one short benchmark iteration as a smoke test: proves the harness and
# the evaluation engine run end to end (wired into ci)
bench-smoke:
	$(GO) test -bench=EvalSmoke -benchtime=1x -run XXX .

# the SEU counterpart at the same smoke scale: exercises the memoized
# keyword-utility scoring engine end to end (wired into ci)
bench-seu-smoke:
	$(GO) test -bench=SEUSmoke -benchtime=1x -run XXX .

# serving load benchmark: train a small bundle, drive mixed multi-tenant
# single/batch traffic through an in-process loopback daemon (registry,
# gateway, coalescer, real HTTP), write BENCH_serve.json, and prove the
# report renders. The committed BENCH_serve.json comes from the full run.
bench-serve:
	$(GO) run ./cmd/datasculpt -dataset youtube -iterations 15 -scale 0.4 -save-bundle /tmp/datasculpt-serve-bench.json > /dev/null
	$(GO) run ./cmd/loadgen -bundle /tmp/datasculpt-serve-bench.json -out BENCH_serve.json
	$(GO) run ./cmd/loadgen -render BENCH_serve.json

# the same harness at smoke scale (2s, 2 tenants, 4 workers), wired into
# ci: proves loadgen, the daemon stack, the sampled trace pipeline
# (head sampling + error/slow latches, gateway-issued request IDs in the
# span attrs), and the report renderer end to end without committing the
# throwaway numbers, and checks the committed BENCH_serve.json renders
bench-serve-smoke:
	$(GO) run ./cmd/datasculpt -dataset youtube -iterations 10 -scale 0.3 -save-bundle /tmp/datasculpt-serve-smoke.json > /dev/null
	$(GO) run ./cmd/loadgen -bundle /tmp/datasculpt-serve-smoke.json -smoke \
		-trace-out /tmp/datasculpt-serve-smoke-trace.jsonl -trace-sample 0.02 \
		-out /tmp/datasculpt-serve-smoke-report.json
	$(GO) run ./cmd/loadgen -render /tmp/datasculpt-serve-smoke-report.json
	$(GO) run ./cmd/loadgen -render BENCH_serve.json

# out-of-core scale benchmarks: 100x Youtube (158,600 train documents)
# through exact vs LSH KATE retrieval (per-query latency + recall@10),
# materialized vs streamed JSONL ingestion (peak heap), and the resident
# vs spilling vote matrix. The committed BENCH_scale.json comes from this
# run; the render step also enforces the >=5x / recall>=0.9 floors.
bench-scale:
	$(GO) test -bench=Scale -benchtime=1x -benchmem -run XXX . | tee BENCH_scale.json
	$(GO) run ./cmd/benchtab -render-scale BENCH_scale.json

# the scale smoke gate (wired into ci): asserts the ANN retrieval and
# vote-spill paths actually execute, that a spill-enabled pipeline run
# stays bit-identical to the resident run, and that the committed
# BENCH_scale.json still renders and passes its floors
bench-scale-smoke:
	$(GO) test -run TestScaleSmoke -count=1 .
	$(GO) run ./cmd/benchtab -render-scale BENCH_scale.json

clean:
	$(GO) clean ./...
