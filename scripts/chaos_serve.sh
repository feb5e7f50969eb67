#!/usr/bin/env bash
# Chaos harness for the tgserve service (docs/SERVICE.md).
#
# Drives the failure modes the robustness layer claims to survive and
# asserts the service invariants held after each:
#
#   - jobs panicking mid-stream through the real recovery path (the job
#     fails, its worker lives on), alone and as a subset of a burst
#   - repeated and elastic preemption (checkpoint-park-resume)
#   - canceling a preempted job that waits with its checkpoint, and
#     resubmitting failed and canceled (tombstoned) specs
#   - drain/spool/restart cycles, including a corrupt spooled checkpoint
#     and jobs canceled after re-admission from the spool
#   - Stats polled while preemptions drive requeues (the s.mu -> j.mu
#     lock order; a wedge fails at a deadline with a goroutine dump)
#   - slow clients and mid-stream disconnects on the streaming path
#   - jobs carrying injected fault schedules
#   - a job parked and a job panicking with records still gathered for
#     the stream (the attempt-end hand-off)
#   - a real process SIGTERMed mid-job and restarted over its spool
#
# "Survived" means: every job reached a terminal state, none vanished or
# ran twice into the same stream, a panicking job failed with the panic
# recorded, and under the frozen clock every completed stream is
# byte-identical to an uninterrupted run's.
#
# Usage: scripts/chaos_serve.sh   (or: make chaos-serve)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "chaos-serve: in-process chaos suite (race detector on)"
go test -race -count=1 -timeout 300s -run 'TestChaos' ./internal/serve/

echo "chaos-serve: queue/supervisor robustness (shed, panic, cancel, tombstones, drain, spool restarts, park mid-chunk, lock order)"
go test -race -count=1 -timeout 300s \
  -run 'TestQueue|TestPanicFailsJobWorkerSurvives|TestCancelRunningJob|TestCancelParkedJobDropsCheckpoint|TestResubmitAfterTombstoneRunsFresh|TestLoadShedding|TestDrainSpoolsAndRestartResumes|TestSpoolCorruptCheckpointRunsFresh|TestCancelSpooledJobStaysCanceledAfterRestart|TestStatsDuringRetriesAndPreemptionNoDeadlock|TestParkMidChunkResumesByteIdentical' \
  ./internal/serve/

echo "chaos-serve: process-level SIGTERM drain + spool restart"
go test -count=1 -timeout 300s -run 'TestServeSIGTERM' ./cmd/tgserve/

echo "chaos-serve: OK"
