#!/usr/bin/env bash
# Chaos harness for the tgserve service (docs/SERVICE.md).
#
# Drives the failure modes the robustness layer claims to survive and
# asserts the service invariants held after each:
#
#   - worker kills mid-job (armed panics through the real recovery path)
#   - repeated and elastic preemption (checkpoint-park-resume)
#   - drain/spool/restart cycles, including a drain during retry backoff
#   - slow clients and mid-stream disconnects on the streaming path
#   - jobs carrying injected fault schedules
#   - a kill storm over a concurrent burst (no job lost or duplicated)
#   - a real process SIGTERMed mid-job and restarted over its spool
#
# "Survived" means: every job reached a terminal state, none vanished or
# ran twice into the same stream, and under the frozen clock every
# completed stream is byte-identical to an uninterrupted run's.
#
# Usage: scripts/chaos_serve.sh   (or: make chaos-serve)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "chaos-serve: in-process chaos suite (race detector on)"
go test -race -count=1 -timeout 300s -run 'TestChaos' ./internal/serve/

echo "chaos-serve: queue/supervisor robustness (shed, retry, cancel, drain)"
go test -race -count=1 -timeout 300s \
  -run 'TestQueue|TestRetryBackoffAndFailureRecord|TestCancelRunningJob|TestLoadShedding|TestDrainSpoolsAndRestartResumes' \
  ./internal/serve/

echo "chaos-serve: process-level SIGTERM drain + spool restart"
go test -count=1 -timeout 300s -run 'TestServeSIGTERM' ./cmd/tgserve/

echo "chaos-serve: OK"
