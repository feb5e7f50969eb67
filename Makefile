GO ?= go
FUZZTIME ?= 30s

.PHONY: build test race vet fmt-check lint lint-json alloc-gate sanitize fuzz chaos chaos-serve verify bench bench-baseline

build:
	$(GO) build ./...

# Tier-1 gate: everything must compile and every test must pass.
test:
	$(GO) build ./...
	$(GO) test ./...

# Race coverage everywhere: the experiments sweep workers and the
# telemetry registry share state, and new concurrency should be caught
# without having to remember to list its package here.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Domain-aware static analysis: the five syntactic passes, the four
# tgflow passes (unit propagation, NaN-taint tracking, checkpoint field
# coverage, cache-flush contracts), and the four tgsync
# synchronization-lifecycle passes (lockorder, unlockpath, blockheld,
# golife) — see docs/STATIC_ANALYSIS.md.
lint:
	$(GO) run ./cmd/tglint ./...

# Same findings as a JSON artifact; CI diffs this against the committed
# zero-findings baseline in .github/tglint-baseline.json.
lint-json:
	$(GO) run ./cmd/tglint -json ./...

# Hard zero-allocation gate on the steady-state epoch loop, one subtest
# per policy (see docs/PERFORMANCE.md, "The zero-allocation contract").
# A local entry point: `make test` runs the same test. -count=1 defeats
# cached test verdicts; never add -race here: its instrumentation
# allocates and the gate requires exactly zero.
alloc-gate:
	$(GO) test -run TestStepEpochZeroAllocs -count=1 ./internal/sim/

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Run the whole suite with the tgsan physics sanitizer compiled in: every
# epoch is checked for energy conservation, temperature and droop bounds,
# gating legality and NaN/Inf (see docs/INVARIANTS.md).
sanitize:
	$(GO) test -tags tgsan ./...

# Coverage-guided fuzzing with the sanitizer as the oracle, plus the
# telemetry encoder against encoding/json. FUZZTIME is per target
# (default 30s); verify uses a quick 3s pass.
fuzz:
	$(GO) test -tags tgsan -run '^$$' -fuzz FuzzThermalStep -fuzztime $(FUZZTIME) ./internal/thermal/
	$(GO) test -tags tgsan -run '^$$' -fuzz FuzzPDNTransient -fuzztime $(FUZZTIME) ./internal/pdn/
	$(GO) test -tags tgsan -run '^$$' -fuzz FuzzSimConfig -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -tags tgsan -run '^$$' -fuzz FuzzJSONLEncoding -fuzztime $(FUZZTIME) ./internal/telemetry/

# Chaos gate: every fault model under the sanitizer, cancel-and-resume
# byte-identity, degraded policy ladders, and the tolerant sweep paths
# (see docs/ROBUSTNESS.md). A local entry point: `make sanitize` runs
# these tests too.
chaos:
	$(GO) test -tags tgsan -run 'TestFaultMatrix|TestCheckpoint|TestRunContext|TestDegraded|TestSweepKeepGoing|TestSweepRecoversPanic|TestSweepAllCellsFailed|TestWatchdog' ./internal/sim/ ./internal/experiments/ ./internal/thermal/

# Service chaos gate: panic jobs mid-stream, preempt, drain/restart, abuse
# the streaming path, then verify no job was lost, duplicated, or made
# non-deterministic (see docs/SERVICE.md). A local entry point: `make
# race` and `make test` run these tests too.
chaos-serve:
	./scripts/chaos_serve.sh

# The full pre-merge check.
verify: vet fmt-check lint test race sanitize chaos chaos-serve
	$(MAKE) fuzz FUZZTIME=3s

# Quick runner benchmark (3 iterations, telemetry off vs. on).
bench:
	$(GO) test -bench 'BenchmarkRunner' -benchtime 3x -run '^$$' ./internal/sim/

# Regenerate the committed performance baseline (with the paired
# cache-disabled control and allocation columns) and validate it.
bench-baseline:
	./scripts/bench_baseline.sh
