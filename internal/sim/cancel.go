package sim

import (
	"context"
	"fmt"
)

// CancelError is how a run reports that its context was canceled. The
// runner polls the context once per epoch (a single interface call — the
// steady-state loop stays allocation-free) and stops at the next epoch
// boundary that has a uarch snapshot — every epoch produced after the
// request captures one — so Checkpoint is a complete, resumable state of
// the interrupted run: restoring it into a fresh runner and calling
// RunContext again continues the run byte-identically (proven by
// cancel_test.go). Cancellation is the only way a run is checkpointed;
// it lands within two epochs of the request.
//
// Checkpoint is nil only when the run was canceled before any epoch
// completed (during setup or the θ-profiling pass, which is cheap to
// redo); such runs must be restarted from scratch.
type CancelError struct {
	// Epoch is the last completed epoch (-1 if none completed).
	Epoch int
	// Checkpoint resumes the run from Epoch; nil when cancellation
	// preceded the first completed epoch.
	Checkpoint *Checkpoint
	// Cause is context.Cause of the canceled context, so callers that
	// cancel with a cause (preemption, drain, client abort) can tell the
	// reasons apart with errors.Is.
	Cause error
}

func (e *CancelError) Error() string {
	if e.Checkpoint != nil {
		return fmt.Sprintf("sim: run canceled after epoch %d (checkpoint captured): %v", e.Epoch, e.Cause)
	}
	return fmt.Sprintf("sim: run canceled before any resumable state existed: %v", e.Cause)
}

// Unwrap exposes the cancellation cause, so errors.Is(err,
// context.Canceled) holds for plain cancels and errors.Is(err, myCause)
// for cause-carrying ones.
func (e *CancelError) Unwrap() error { return e.Cause }

// ctxErr polls the run's context. A runner whose Run was never given a
// context (direct beginRun/stepEpoch drivers, the profiling pass under
// tests) has no context and never cancels. The poll is one interface
// call per epoch on the hot path; Background().Err() is a nil return.
func (r *Runner) ctxErr() error {
	if r.runCtx == nil {
		return nil
	}
	return r.runCtx.Err()
}

// cancelCause resolves the most specific cancellation reason available.
// It runs at most once per run, on the cancellation exit path.
func cancelCause(ctx context.Context) error {
	if ctx == nil {
		return context.Canceled
	}
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return ctx.Err()
}
