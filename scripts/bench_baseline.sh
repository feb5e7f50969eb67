#!/bin/sh
# Regenerates BENCH_baseline.json at the repo root from the telemetry
# layer's per-phase measurements, with the paired cache-disabled control
# and the steady-state allocation columns, after a sanity pass of the Go
# benchmarks, then re-validates the freshly-written file with the same
# check CI runs on the committed one. Run from anywhere; writes relative
# to the repo root.
#
# The defaults favour stability over speed (see docs/PERFORMANCE.md for
# why repetitions are interleaved and how the noise floor is defined);
# pass tgbench flags to override, e.g. `scripts/bench_baseline.sh -reps 3`.
set -eu

cd "$(dirname "$0")/.."

echo "== runner benchmarks (sanity, 3 iterations each) =="
go test -bench 'BenchmarkRunner' -benchtime 3x -run '^$' ./internal/sim/

echo "== recording telemetry baseline =="
go run ./cmd/tgbench -reps 7 -warmup 2 -out BENCH_baseline.json "$@"

echo "== validating the baseline =="
go run ./cmd/tgbench -check BENCH_baseline.json
