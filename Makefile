# Tier-1 gate: everything `make check` runs must stay green.
GO ?= go

.PHONY: all build check fmt vet staticcheck test race fuzz-smoke bench bench-scale bench-scale-profile bench-scale-smoke bench-rollouts bench-rollouts-profile memo-golden-smoke batch-race-smoke clean

all: build

build:
	$(GO) build ./...

# check is the tier-1 gate: formatting, vet, staticcheck (when
# installed), the full suite under the race detector (the telemetry
# hub and the insitu driver are concurrent by design), and a single-
# iteration pass over the scale benchmarks so they cannot rot.
check: fmt vet staticcheck race fuzz-smoke bench-scale-smoke memo-golden-smoke batch-race-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH and is skipped (with a
# note) otherwise, so `make check` works in offline environments; CI
# installs it and gets the full gate.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke runs each fuzz target briefly beyond its seed corpus:
# every generated event must encode byte-identically to the
# encoding/json oracle and decode back; any line must decode to an
# event that round-trips the same way, or fail with an error; the
# fault-plan and class-map parsers must reject bad text with an error
# (never a panic) and round-trip every plan or map they accept through
# String; and any job file must load, build and build its workflow to
# a value or an error, never a panic.
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzEncode$$' -fuzztime 10s ./internal/telemetry/
	$(GO) test -run xxx -fuzz '^FuzzDecode$$' -fuzztime 5s ./internal/telemetry/
	$(GO) test -run xxx -fuzz '^FuzzFaultParse$$' -fuzztime 5s ./internal/fault/
	$(GO) test -run xxx -fuzz '^FuzzParseClassMap$$' -fuzztime 5s ./internal/machine/
	$(GO) test -run xxx -fuzz '^FuzzJobfileLoad$$' -fuzztime 5s ./internal/jobfile/

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# bench-scale measures the substrate at 256/1024/4096 ranks: the mpi
# collective/mailbox microbenchmarks, the whole-job insitu macro
# benchmark, and the telemetry hot paths under a GOMAXPROCS 1/4/8
# scaling study (-cpu re-runs each benchmark at every parallelism
# level). Results feed BENCH_scale.json / BENCH_scale2.json (see
# EXPERIMENTS.md).
bench-scale:
	$(GO) test -run xxx -bench . -benchtime 2s ./internal/mpi/
	$(GO) test -run xxx -bench BenchmarkInsituScale -benchtime 1x -count 3 ./internal/insitu/
	$(GO) test -run xxx -bench BenchmarkTopologies -benchtime 1x -count 3 ./internal/workflow/
	$(GO) test -run xxx -bench BenchmarkRollouts -benchtime 2s ./internal/rollout/
	$(GO) test -run xxx -bench BenchmarkHetero -benchtime 1x -count 3 ./internal/cosim/
	$(GO) test -run xxx -bench . -benchtime 1s -cpu 1,4,8 ./internal/telemetry/

# bench-scale-profile repeats the measurement run with CPU and heap
# profiles written per package (insitu.cpu.out etc.); CI uploads them
# as artifacts so a regression can be diagnosed from the run itself.
bench-scale-profile:
	$(GO) test -run xxx -bench . -benchtime 1s \
		-cpuprofile mpi.cpu.out -memprofile mpi.mem.out ./internal/mpi/
	$(GO) test -run xxx -bench BenchmarkInsituScale -benchtime 1x \
		-cpuprofile insitu.cpu.out -memprofile insitu.mem.out ./internal/insitu/
	$(GO) test -run xxx -bench BenchmarkTopologies -benchtime 1x \
		-cpuprofile workflow.cpu.out -memprofile workflow.mem.out ./internal/workflow/
	$(GO) test -run xxx -bench BenchmarkRollouts -benchtime 1x \
		-cpuprofile rollout.cpu.out -memprofile rollout.mem.out ./internal/rollout/
	$(GO) test -run xxx -bench . -benchtime 0.3s -cpu 4 \
		-cpuprofile telemetry.cpu.out -memprofile telemetry.mem.out ./internal/telemetry/

# bench-scale-smoke runs every scale benchmark for one iteration — a
# correctness gate (part of `make check`), not a measurement. CI runs
# it at GOMAXPROCS=1 (via `make check`) and again at GOMAXPROCS=4 so
# the striped/lock-free paths see real parallelism. The 16384-node
# rollout keeps a 16k-node episode tractable.
bench-scale-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/mpi/
	$(GO) test -run xxx -bench 'BenchmarkInsituScale/nodes=256' -benchtime 1x ./internal/insitu/
	$(GO) test -run xxx -bench 'BenchmarkTopologies/nodes=256' -benchtime 1x ./internal/workflow/
	$(GO) test -run xxx -bench 'BenchmarkRollouts/nodes=(256|16384)$$' -benchtime 1x ./internal/rollout/
	$(GO) test -run xxx -bench 'BenchmarkEpisodeRun' -benchtime 1x ./internal/cosim/
	$(GO) test -run xxx -bench 'BenchmarkHetero/nodes=256' -benchtime 1x ./internal/cosim/
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/telemetry/

# bench-rollouts measures the policy-search fast path in isolation:
# pooled-Env episode throughput at 256/1024/4096 nodes, the unpooled
# fresh-Env baseline, and the batched grid sweep at jobs=1/4/8. The
# batch benchmark re-runs at GOMAXPROCS 1/4/8 (-cpu) so jobs>1 rows
# measure real parallelism; jobs>1 under one core skips with a note.
# Interleaved A/B medians of these runs feed BENCH_rollouts2.json and
# BENCH_rollouts3.json (see EXPERIMENTS.md).
bench-rollouts:
	$(GO) test -run xxx -bench 'BenchmarkRollouts$$|BenchmarkRolloutsFresh$$' -benchtime 2s ./internal/rollout/
	$(GO) test -run xxx -bench BenchmarkRolloutsBatch -benchtime 2s -cpu 1,4,8 ./internal/rollout/

# bench-rollouts-profile repeats the pooled run with CPU and heap
# profiles (rollout.cpu.out / rollout.mem.out); CI uploads them as
# artifacts so a throughput regression can be diagnosed from the run.
bench-rollouts-profile:
	$(GO) test -run xxx -bench '^BenchmarkRollouts$$' -benchtime 1x -count 5 \
		-cpuprofile rollout.cpu.out -memprofile rollout.mem.out ./internal/rollout/

# memo-golden-smoke pins the noise-trace memoization end to end at the
# CLI: the same small search grids with memoization on and with
# -no-noise-memo must print byte-identical reports (replay is
# byte-identical to live draws by construction). The second grid adds
# kills, a slow excursion and a device-class map, whose jobs share one
# recorded trace.
MEMO_GRID = -nodes 8 -steps 20 -budgets 105,110 -policies seesaw,time-aware
MEMO_FAULTED = -faults none,kill:2@4,slow:5@3x2+4 -classes 'uniform;0-1:gpu'

memo-golden-smoke:
	@tmp="$${TMPDIR:-/tmp}"; \
	for extra in "" "$(MEMO_FAULTED)"; do \
		eval "$(GO) run ./cmd/seesawctl search $(MEMO_GRID) $$extra" > "$$tmp/seesaw-memo-on.txt" && \
		eval "$(GO) run ./cmd/seesawctl search $(MEMO_GRID) $$extra -no-noise-memo" > "$$tmp/seesaw-memo-off.txt" || exit 1; \
		if ! cmp -s "$$tmp/seesaw-memo-on.txt" "$$tmp/seesaw-memo-off.txt"; then \
			echo "memo-on vs -no-noise-memo reports diverge ($(MEMO_GRID) $$extra):"; \
			diff "$$tmp/seesaw-memo-on.txt" "$$tmp/seesaw-memo-off.txt"; exit 1; \
		fi; \
	done; \
	rm -f "$$tmp/seesaw-memo-on.txt" "$$tmp/seesaw-memo-off.txt"; \
	echo "memo golden smoke ok: memoized and live reports are byte-identical"

# batch-race-smoke runs one 256-node batched grid sweep under the race
# detector: Batch, the shared trace cache, the per-worker pooled Envs
# and the campaign pool all on the hot path at real concurrency.
batch-race-smoke:
	$(GO) test -race -run xxx -bench 'BenchmarkRolloutsBatch/nodes=256/jobs=4' -benchtime 1x ./internal/rollout/

clean:
	$(GO) clean ./...
