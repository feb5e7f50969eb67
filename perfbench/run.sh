#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload svc-short --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, binary, its own config)
# stays under .bench_build/ at the root of the checkout. The benchmark is
# its own module that builds against the checkout's root module, so it
# fails to build, and exits non-zero, where that module is missing.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(dirname "$here")/.bench_build
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
