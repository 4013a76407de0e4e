# Repro of Vaswani & Zahorjan, SOSP 1991 — build/verify targets.
#
# `make ci` is the full gate: vet, build, race-enabled tests, and a
# one-iteration benchmark smoke pass over every exhibit. ROADMAP.md's
# tier-1 verify (`go build ./... && go test ./...`) is the `quick` target.

GO ?= go

.PHONY: all build fmt-check vet test quick regen race fuzz-smoke bench-smoke bench-cache bench-compare bench-json bench-check bench-api serve-smoke obs-smoke cell-smoke analytic-smoke persist-smoke fleet-smoke examples-smoke ci

all: build

build:
	$(GO) build ./...

# Fails listing every Go file of either module (the root and bench/, which
# `.` covers) that gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# ROADMAP.md tier-1 verify.
quick: build test

# Re-records the byte contract: the CLI goldens, the campaign-body digests,
# the campaign listing and the analytic promotion golden, each written by
# its golden test under -update. The digests go first, alone: they refuse
# to record changed campaign bodies under an unchanged version.Engine (a
# persisted store would serve the old bytes under the same cell keys), and
# then regen fails before any other file is written. Bump version.Engine,
# then re-run. bench-json stays separate: it refuses a dirty tree, so it
# runs after the re-record is committed.
regen:
	$(GO) test -count=1 -run '^TestCampaignBodyGoldens$$' ./internal/experiments -update
	$(GO) test -count=1 -run '^(TestCLIGoldens|TestPromotionGolden|TestCampaignListingGolden)$$' \
		./cmd/affinitysim ./internal/experiments ./internal/service -update

race:
	$(GO) test -race ./...

# Ten seconds of the campaign-parameter fuzz (FuzzCampaignParams): random
# params normalized as every kind must never panic, must normalize to
# themselves again with the same cache key, must stay within the kind's
# advertised schema, and must be refused only as a ParamError naming a
# schema parameter. Then ten seconds of FuzzServiceN, which holds the
# bus's prefix-sum ServiceN to the per-transaction bus on random call
# sequences. Then ten seconds of FuzzFillBlock, which holds the trace
# generator's FillBlock to a per-reference float-compare oracle on random
# patterns split into random blocks, with saves, restores and clones
# between them. Then ten seconds of FuzzMeasureCell, which holds every run
# of a Table-1 cell's lockstep replay to the per-reference oracle on
# random patterns, 1-, 2- and 4-way caches, quanta and budgets. A plain
# `go test` runs their seed corpora only.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCampaignParams$$' -fuzztime 10s -parallel 2 ./internal/experiments/
	$(GO) test -run '^$$' -fuzz '^FuzzServiceN$$' -fuzztime 10s -parallel 2 ./internal/bus/
	$(GO) test -run '^$$' -fuzz '^FuzzFillBlock$$' -fuzztime 10s -parallel 2 ./internal/memtrace/
	$(GO) test -run '^$$' -fuzz '^FuzzMeasureCell$$' -fuzztime 10s -parallel 2 ./internal/measure/

# One iteration of every benchmark — proves the exhibit drivers still run,
# without the minutes-long full sweep.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# One iteration of the exact-cache fast-path benchmarks (flat-array cache,
# undo journal, single-replay plan/commit, block generation), of the
# Table-1 cell replay, of the workload graph build and of the disk
# store's boot scan — a dedicated gate so a regression in the hot path
# fails ci by name even though bench-smoke also sweeps these packages.
bench-cache:
	$(GO) test -run '^$$' -bench . -benchtime 1x \
		./internal/bus/ ./internal/cache/ ./internal/cachemodel/ ./internal/diskstore/ ./internal/measure/ ./internal/memtrace/ ./internal/workload/

# The worker-pool scaling benchmark (EXPERIMENTS.md "Campaign runner"):
# the 24 cells of the fast compare plan through Cell.Run at 1, 4 and 8
# workers; outputs are bitwise identical, only the wall clock may differ.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkComparePolicies$$' -cpu 1,4,8 -benchtime 2x .

# Machine-readable perf baseline (BENCH_cache.json): the cache/replay
# microbenchmarks, the Table-1 cell replay included, at full benchtime
# plus the campaign-level exhibits, allocation-profile benchmarks,
# fresh-seed sim campaigns (BenchmarkRunSim) and a fresh analytic
# campaign through an in-process coordinator and two workers
# (BenchmarkFleetCampaign) at a few iterations — the last two recorded
# but not yet gated by bench-check — parsed into
# benchmark -> {ns/op, B/op, allocs/op}. benchjson is built (not `go run`)
# so the binary carries VCS build info and the baseline's _meta records the
# git revision that produced it; benchjson refuses to write a baseline from
# a dirty tree, so the recorded SHA always identifies the measured code.
bench-json:
	$(GO) build -o benchjson.bin ./cmd/benchjson
	{ $(GO) test -run '^$$' -bench . -benchmem \
		./internal/cache/ ./internal/cachemodel/ ./internal/measure/ ./internal/memtrace/ ; \
	  $(GO) test -run '^$$' -benchmem -benchtime 2x \
		-bench 'BenchmarkComparePolicies$$|BenchmarkTable1$$|BenchmarkAblationExactEngine$$|BenchmarkSchedRunAllocs$$|BenchmarkSchedRunnerSteadyState$$|BenchmarkCompareCellAllocs$$|BenchmarkRunSim$$|BenchmarkFleetCampaign$$' . ; } \
	| ./benchjson.bin -o BENCH_cache.json
	rm -f benchjson.bin

# The allocation regression gate: re-runs the campaign allocation-profile
# benchmarks and fails if any exceeds its committed BENCH_cache.json
# ceiling on B/op or allocs/op (ns/op is never gated — it varies with the
# host; allocation counts are properties of the code).
bench-check:
	$(GO) build -o benchjson.bin ./cmd/benchjson
	$(GO) test -run '^$$' -benchmem -benchtime 2x \
		-bench 'BenchmarkComparePolicies$$|BenchmarkSchedRunAllocs$$|BenchmarkSchedRunnerSteadyState$$|BenchmarkCompareCellAllocs$$' . \
	| ./benchjson.bin -check BENCH_cache.json
	rm -f benchjson.bin

# The bench module's API gate: bench/ is a separate Go module (the repo
# benchmark's load driver) that imports internal/experiments and
# internal/service, so a reshaped package API breaks it without failing
# `go build ./...` here. Vets and tests it against this checkout, offline;
# it edits nothing under bench/.
bench-api:
	cd bench && GOPROXY=off $(GO) vet ./... && GOPROXY=off $(GO) test ./...

# The affinityd gate: boots the daemon's serving core on a random port,
# POSTs the same table1 campaign twice, and requires the second response
# to be a result-cache hit with a byte-identical body; also proves SIGTERM
# drains the real binary cleanly. The service suite runs under -race.
serve-smoke:
	$(GO) test -race -count=1 ./cmd/affinityd/ ./internal/service/

# The observability gate: boots the serving core against the real
# simulation engine, POSTs a campaign, and requires the engine counters
# (reallocations, P^A/P^NA charges, flushes) and the request-span
# histograms (queue wait, execution) at /metrics to be nonzero — the
# whole stats path, scheduler to daemon, wired end to end.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestObsSmoke' ./cmd/affinityd/

# The incremental-reuse gate: completes part of a compare campaign's grid,
# hard-stops the daemon core with the campaign itself queued behind a
# paper-scale one, and re-submits on a second server sharing the same cell
# cache — requiring that exactly the never-completed cells execute (per
# the affinityd_cell_* metrics) and that the resumed body is
# byte-identical to a cold, uninterrupted run.
cell-smoke:
	$(GO) test -race -count=1 -run 'TestCellSmoke' ./cmd/affinityd/

# The persistence gate: boots the real binary with a temp -store-dir,
# kill -9s it mid-campaign, reboots on the same directory, and requires
# the flushed cells to be served from disk with a final body
# byte-identical to a cold run — then a third boot to prove the
# completed campaign body itself is re-served from disk with zero cell
# executions (DESIGN.md "Persistence" crash-consistency contract).
persist-smoke:
	$(GO) test -race -count=1 -run 'TestPersistSmoke' ./cmd/affinityd/

# The fleet gate: builds the real binary, boots one coordinator and
# three workers (readiness by polling /v1/workers, never by sleeping),
# kill -9s the worker placement will pick first, while it is still
# registered, submits a table1 campaign, and requires the coordinator to
# absorb the loss — at least one retried or hedged batch in
# affinityd_fleet_* — with a final body byte-identical to a cold
# single-process run, one placement decision per batch attempt, and
# fewer batches than dispatched cells.
fleet-smoke:
	$(GO) test -race -count=1 -run 'TestFleetSmoke' ./cmd/affinityd/

# The analytic-engine gate: re-runs the differential calibration grid on
# both engines and fails if any golden-promoted cell drifted past the 10%
# tolerance (`affinitysim calibrate`, check mode), then pins the
# engine-tier cache contract — engine=analytic and engine=sim derive
# distinct cell cache keys, the analytic body is byte-stable across runs,
# and engine=auto never selects analytic outside the promotion envelope;
# the re-run calibration table must also equal the golden byte for byte
# (TestPromotionGolden). TestCalibrationCheck covers the check itself on
# hand-built tables.
analytic-smoke:
	$(GO) run ./cmd/affinitysim calibrate
	$(GO) test -count=1 -run 'TestEngine|TestAnalytic|TestAuto|TestCalibration|TestPromotionGolden' ./internal/experiments/

# The examples gate: runs the four example programs (futurecast and
# multiprog at their -fast scale) and fails on a nonzero exit, so an API
# change the examples depend on breaks ci, not a reader's first run.
examples-smoke:
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/customapp > /dev/null
	$(GO) run ./examples/futurecast -fast > /dev/null
	$(GO) run ./examples/multiprog -fast > /dev/null

ci: fmt-check vet build race fuzz-smoke bench-smoke bench-cache bench-check bench-api serve-smoke obs-smoke cell-smoke persist-smoke fleet-smoke analytic-smoke examples-smoke
