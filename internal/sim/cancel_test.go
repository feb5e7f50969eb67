package sim

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/telemetry"
)

// TestRunContextCancelResumeByteIdentical is the central resilience
// oracle: a run canceled mid-flight through its context must stop at an
// epoch boundary with a checkpoint in the CancelError, a fresh runner
// resumed from that checkpoint must stitch a telemetry stream
// byte-identical to an uninterrupted run, and the final Results must be
// deeply equal. Any piece of cross-epoch state missing from Checkpoint
// (an RNG, a WMA filter, an accumulator) diverges the stream here.
func TestRunContextCancelResumeByteIdentical(t *testing.T) {
	// seq: the runner's single serial epoch pipeline.
	t.Run("seq", func(t *testing.T) {
		cfg := checkpointTestConfig(t)

		// Reference: the uninterrupted run.
		regA, bufA, sinkA := constantClockRegistry()
		full := cfg
		full.Telemetry = regA
		rA, err := New(full)
		if err != nil {
			t.Fatal(err)
		}
		resA, err := rA.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := sinkA.Flush(); err != nil {
			t.Fatal(err)
		}

		// Canceled run: a telemetry sink wrapper triggers the cancel
		// after the 25th record, so the cancellation point is
		// deterministic without depending on wall-clock timing.
		cause := errors.New("preempted for test")
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		regB, bufB, sinkB := constantClockRegistry()
		records := 0
		regB.AddSink(sinkFunc(func() {
			records++
			if records == 25 {
				cancel(cause)
			}
		}))
		interrupted := cfg
		interrupted.Telemetry = regB
		rB, err := New(interrupted)
		if err != nil {
			t.Fatal(err)
		}
		_, err = rB.RunContext(ctx)
		var ce *CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("canceled run returned %v, want a *CancelError", err)
		}
		if !errors.Is(err, cause) {
			t.Errorf("CancelError cause chain lost the cancel cause: %v", err)
		}
		if ce.Checkpoint == nil {
			t.Fatal("CancelError carries no checkpoint")
		}
		if ce.Epoch != ce.Checkpoint.Epoch {
			t.Errorf("CancelError.Epoch=%d but Checkpoint.Epoch=%d", ce.Epoch, ce.Checkpoint.Epoch)
		}
		if err := sinkB.Flush(); err != nil {
			t.Fatal(err)
		}

		// The checkpoint must round-trip like a real on-disk snapshot.
		var cpb bytes.Buffer
		if err := ce.Checkpoint.Encode(&cpb); err != nil {
			t.Fatal(err)
		}
		cp, err := ReadCheckpoint(&cpb)
		if err != nil {
			t.Fatal(err)
		}

		// Resume on a fresh runner ("another worker").
		regC, bufC, sinkC := constantClockRegistry()
		resumed := cfg
		resumed.Telemetry = regC
		rC, err := New(resumed)
		if err != nil {
			t.Fatal(err)
		}
		if err := rC.Restore(cp); err != nil {
			t.Fatal(err)
		}
		resC, err := rC.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := sinkC.Flush(); err != nil {
			t.Fatal(err)
		}

		// The canceled prefix may hold more records than the stitched
		// boundary (the epoch record of the stopping epoch is emitted
		// before the CancelError returns) — but prefix+suffix must be
		// exactly the uninterrupted stream.
		stitched := append(append([]byte(nil), bufB.Bytes()...), bufC.Bytes()...)
		if !bytes.Equal(stitched, bufA.Bytes()) {
			t.Fatalf("stitched stream differs from uninterrupted run (%d vs %d bytes)", len(stitched), len(bufA.Bytes()))
		}
		if !reflect.DeepEqual(resA, resC) {
			t.Errorf("resumed result differs from uninterrupted result")
		}
		if resA.FaultEvents == 0 {
			t.Error("fault schedule never fired — the test is not exercising injector state")
		}
	})
}

// sinkFunc adapts a callback into a telemetry sink that observes records.
type sinkFunc func()

func (f sinkFunc) Emit(*telemetry.Record) error { f(); return nil }
func (f sinkFunc) Flush() error                 { return nil }

// TestRunContextPreCanceled covers the immediate paths: an already-canceled
// context never starts the run, and cancellation during the θ-profiling
// pass reports no checkpoint.
func TestRunContextPreCanceled(t *testing.T) {
	cfg := telemetryTestConfig(t, core.AllOn)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = r.RunContext(ctx)
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("pre-canceled run returned %v, want *CancelError", err)
	}
	if ce.Checkpoint != nil || ce.Epoch != -1 {
		t.Errorf("pre-canceled run reported state: epoch=%d checkpoint=%v", ce.Epoch, ce.Checkpoint != nil)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("plain cancel should satisfy errors.Is(err, context.Canceled): %v", err)
	}

	// Profiling-pass cancellation (white-box: drive profileTheta with a
	// canceled run context directly, since RunContext's entry check would
	// otherwise win the race deterministically).
	pr, err := New(telemetryTestConfig(t, core.PracT))
	if err != nil {
		t.Fatal(err)
	}
	pctx, pcancel := context.WithCancel(context.Background())
	pcancel()
	pr.runCtx = pctx
	if _, err := pr.profileTheta(); !errors.As(err, &ce) {
		t.Fatalf("canceled profiling pass returned %v, want *CancelError", err)
	} else if ce.Checkpoint != nil {
		t.Error("profiling cancellation must not claim resumable state")
	}

	// A nil context behaves like Background.
	nr, err := New(telemetryTestConfig(t, core.AllOn))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nr.RunContext(nil); err != nil { //lint:ignore SA1012 deliberate nil-context robustness check
		t.Fatalf("nil context run failed: %v", err)
	}
}
