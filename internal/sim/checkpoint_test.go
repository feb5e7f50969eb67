package sim

import (
	"bytes"
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

// errInterrupt is the sentinel a checkpoint sink returns to abort a run at
// a chosen snapshot — the deterministic stand-in for a kill.
var errInterrupt = errors.New("interrupted for test")

// TestCheckpointResumeByteIdentical is the central resilience oracle: a run
// interrupted at an arbitrary checkpoint and resumed from it must emit a
// telemetry stream whose concatenation with the interrupted prefix is
// byte-identical to an uninterrupted run — and the final Results must be
// deeply equal. Any piece of cross-epoch state missing from Checkpoint
// (an RNG, a WMA filter, an accumulator) diverges the stream here.
func TestCheckpointResumeByteIdentical(t *testing.T) {
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
	if bufA.Len() == 0 {
		t.Fatal("reference run emitted no telemetry")
	}

	// Interrupted run: checkpoint every 7 epochs, kill at the third
	// snapshot (after epoch 20 of 60). The checkpoint itself round-trips
	// through gob on the way, like a real on-disk snapshot would.
	var cpBytes bytes.Buffer
	writes := 0
	regB, bufB, sinkB := constantClockRegistry()
	interrupted := cfg
	interrupted.Telemetry = regB
	interrupted.Checkpoint = CheckpointConfig{
		EveryEpochs: 7,
		Sink: func(cp *Checkpoint) error {
			writes++
			if writes < 3 {
				return nil
			}
			cpBytes.Reset()
			if err := cp.Encode(&cpBytes); err != nil {
				return err
			}
			return errInterrupt
		},
	}
	rB, err := New(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rB.Run(); !errors.Is(err, errInterrupt) {
		t.Fatalf("interrupted run returned %v, want the sink's sentinel", err)
	}
	if err := sinkB.Flush(); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(&cpBytes)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Epoch != 20 {
		t.Fatalf("third checkpoint at epoch %d, want 20", cp.Epoch)
	}

	// Resume: a fresh runner with the same config, loaded from the
	// decoded checkpoint, continues the telemetry stream and the result.
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
	resC, err := rC.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sinkC.Flush(); err != nil {
		t.Fatal(err)
	}

	stitched := append(append([]byte(nil), bufB.Bytes()...), bufC.Bytes()...)
	if !bytes.Equal(stitched, bufA.Bytes()) {
		la := bytes.Split(bufA.Bytes(), []byte("\n"))
		ls := bytes.Split(stitched, []byte("\n"))
		for i := 0; i < len(la) && i < len(ls); i++ {
			if !bytes.Equal(la[i], ls[i]) {
				t.Fatalf("resumed telemetry diverges at line %d:\n  uninterrupted: %s\n  stitched:      %s",
					i+1, la[i], ls[i])
			}
		}
		t.Fatalf("telemetry streams differ in length: %d vs %d bytes", len(stitched), len(bufA.Bytes()))
	}
	if !reflect.DeepEqual(resA, resC) {
		t.Errorf("resumed result differs from uninterrupted result:\n  uninterrupted: %+v\n  resumed:       %+v", resA, resC)
	}
	if resA.FaultEvents == 0 {
		t.Error("fault schedule never fired — the test is not exercising injector state")
	}
}

// TestCheckpointRoundTrip covers the snapshot plumbing itself: gob
// round-trip fidelity, schema and identity rejection, and that a single
// checkpoint can be restored more than once without cross-talk.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := checkpointTestConfig(t)
	var cp *Checkpoint
	cfg.Checkpoint = CheckpointConfig{
		EveryEpochs: 10,
		Sink: func(c *Checkpoint) error {
			cp = c
			return errInterrupt
		},
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); !errors.Is(err, errInterrupt) {
		t.Fatalf("run returned %v, want sentinel", err)
	}
	if cp == nil {
		t.Fatal("sink never received a checkpoint")
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
