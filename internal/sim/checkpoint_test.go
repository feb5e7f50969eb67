package sim

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"thermogater/internal/core"
	"thermogater/internal/dvfs"
	"thermogater/internal/fault"
	"thermogater/internal/telemetry"
)

// constantClockRegistry returns a telemetry registry whose clock never
// moves, plus the buffer its JSONL sink writes to. With a frozen clock
// every duration field is exactly zero, so the stream depends only on the
// simulation state — the property the byte-identity oracle needs.
func constantClockRegistry() (*telemetry.Registry, *bytes.Buffer, *telemetry.JSONLSink) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	epoch := time.Unix(0, 0)
	reg.SetClock(func() time.Time { return epoch })
	sink := telemetry.NewJSONLSink(&buf)
	reg.AddSink(sink)
	return reg, &buf, sink
}

// checkpointTestConfig is a run with as much cross-epoch state as the
// engine carries: a practical policy (WMA filters, theta, predictor RNG),
// the DVFS governor's levels and hysteresis runs, aging accumulation,
// sensor noise and an armed fault schedule.
func checkpointTestConfig(t *testing.T) Config {
	t.Helper()
	cfg := telemetryTestConfig(t, core.PracVT)
	vf := dvfs.DefaultConfig()
	cfg.DVFS = &vf
	cfg.TrackAging = true
	cfg.SensorNoiseC = 0.05
	sched, err := fault.ParseSchedule("vr-stuck-off@15:unit=3; sensor-dropout@25+10:unit=40; trace-gap@30+5:unit=2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = sched
	return cfg
}

// TestCheckpointRoundTrip covers the snapshot plumbing itself: gob
// round-trip fidelity, schema and identity rejection, and that a single
// checkpoint can be restored more than once without cross-talk.
func TestCheckpointRoundTrip(t *testing.T) {
	// Capture the checkpoint by cancellation: a telemetry sink cancels
	// the run after its 10th record, and the run stops at the next epoch
	// boundary with the checkpoint in its CancelError.
	cfg := checkpointTestConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := telemetry.NewRegistry()
	records := 0
	reg.AddSink(sinkFunc(func() {
		records++
		if records == 10 {
			cancel()
		}
	}))
	cfg.Telemetry = reg
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunContext(ctx)
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("run returned %v, want a *CancelError", err)
	}
	cp := ce.Checkpoint
	if cp == nil {
		t.Fatal("CancelError carries no checkpoint")
	}

	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, decoded) {
		t.Error("gob round-trip changed the checkpoint")
	}

	// Two independent resumes from the same snapshot must agree exactly.
	runFrom := func(c *Checkpoint) *Result {
		rr, err := New(checkpointTestConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := rr.Restore(c); err != nil {
			t.Fatal(err)
		}
		res, err := rr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resA := runFrom(decoded)
	resB := runFrom(decoded)
	if !reflect.DeepEqual(resA, resB) {
		t.Error("two resumes from the same checkpoint diverged — the checkpoint is being mutated")
	}

	// Schema and identity guards.
	bad := *decoded
	bad.Schema = "thermogater/checkpoint/v0"
	var bbuf bytes.Buffer
	if err := bad.Encode(&bbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(&bbuf); err == nil {
		t.Error("ReadCheckpoint accepted a wrong schema tag")
	}
	other, err := New(telemetryTestConfig(t, core.OracT))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(decoded); err == nil {
		t.Error("Restore accepted a checkpoint from a different policy")
	}
	mism := *decoded
	mism.Seed++
	same, err := New(checkpointTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := same.Restore(&mism); err == nil {
		t.Error("Restore accepted a checkpoint with a different seed")
	}
	if err := same.Restore(nil); err == nil {
		t.Error("Restore accepted a nil checkpoint")
	}
}
