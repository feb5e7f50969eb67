GO ?= go
FUZZTIME ?= 30s

.PHONY: build test race vet fmt-check lint lint-json lint-incremental alloc-gate sanitize fuzz chaos chaos-serve verify bench bench-baseline bench-serve

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

# Domain-aware static analysis: the seven syntactic passes, the four
# tgflow passes (cross-call unit propagation, NaN-taint tracking,
# checkpoint field coverage, cache-flush contracts), the three tgperf
# hot-path passes (allocfree, boxcheck, capgrow), and the four tgsync
# synchronization-lifecycle passes (lockorder, unlockpath, blockheld,
# golife) — see docs/STATIC_ANALYSIS.md.
lint:
	$(GO) run ./cmd/tglint ./...

# Same findings as a JSON artifact; CI diffs this against the committed
# zero-findings baseline in .github/tglint-baseline.json.
lint-json:
	$(GO) run ./cmd/tglint -json ./...

# Incremental lint: per-package fingerprint cache under .tglint-cache/.
# A no-change rerun skips loading entirely and replays cached findings;
# output is byte-identical to the full run (see docs/STATIC_ANALYSIS.md,
# "Incremental analysis"). Cache-hit stats go to stderr.
lint-incremental:
	$(GO) run ./cmd/tglint -cache .tglint-cache ./...

# Hard zero-allocation gate on the steady-state epoch loop (the dynamic
# counterpart of the tgperf lint passes — see docs/PERFORMANCE.md, "The
# zero-allocation contract"). -count=1 defeats cached test verdicts;
# never add -race here: its instrumentation allocates and the gate
# requires exactly zero.
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

# Coverage-guided fuzzing with the sanitizer as the oracle. FUZZTIME is per
# target (default 30s); verify uses a quick 3s pass.
fuzz:
	$(GO) test -tags tgsan -run '^$$' -fuzz FuzzThermalStep -fuzztime $(FUZZTIME) ./internal/thermal/
	$(GO) test -tags tgsan -run '^$$' -fuzz FuzzPDNTransient -fuzztime $(FUZZTIME) ./internal/pdn/
	$(GO) test -tags tgsan -run '^$$' -fuzz FuzzSimConfig -fuzztime $(FUZZTIME) ./internal/sim/

# Chaos gate: every fault model under the sanitizer, kill-and-resume
# byte-identity, degraded policy ladders, and the tolerant sweep paths
# (see docs/ROBUSTNESS.md).
chaos:
	$(GO) test -tags tgsan -run 'TestFaultMatrix|TestCheckpoint|TestDegraded|TestSweepKeepGoing|TestSweepRecoversPanic|TestSweepAllCellsFailed|TestWatchdog' ./internal/sim/ ./internal/experiments/ ./internal/thermal/

# Service chaos gate: kill workers mid-job, preempt, drain/restart, abuse
# the streaming path, then verify no job was lost, duplicated, or made
# non-deterministic (see docs/SERVICE.md).
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

# Regenerate the committed service baseline (BENCH_serve.json): latency
# percentiles + throughput for 1000 concurrent small jobs, and the
# preemption byte-identity oracle. Validated by `tgserve -check`.
bench-serve:
	$(GO) run ./cmd/tgserve -bench -out BENCH_serve.json
