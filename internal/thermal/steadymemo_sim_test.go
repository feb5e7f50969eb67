package thermal_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"thermogater/internal/core"
	"thermogater/internal/sim"
	"thermogater/internal/telemetry"
	"thermogater/internal/thermal"
	"thermogater/internal/workload"
)

// runBytes runs cfg with a frozen-clock JSONL sink and returns the
// Result's JSON and the per-epoch stream.
func runBytes(t *testing.T, cfg sim.Config) (result, stream []byte) {
	t.Helper()
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	tick := time.Unix(0, 0)
	reg.SetClock(func() time.Time {
		tick = tick.Add(time.Microsecond)
		return tick
	})
	sink := telemetry.NewJSONLSink(&buf)
	reg.AddSink(sink)
	cfg.Telemetry = reg
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	result, err = json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return result, buf.Bytes()
}

// TestSimRunSteadyStartHitIsByteIdentical is the memo's end-to-end check:
// a run whose starting thermal field comes from the memo must equal, in
// its Result and in every byte of its per-epoch stream, a run that solved
// the field after the memo was emptied. It covers on-chip regulation
// (all-on, pracVT) and off-chip, on two benchmarks.
func TestSimRunSteadyStartHitIsByteIdentical(t *testing.T) {
	for _, bench := range []string{"fft", "lu_ncb"} {
		p, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []core.PolicyKind{core.AllOn, core.PracVT, core.OffChip} {
			cfg := sim.DefaultConfig(policy, p)
			cfg.Seed = 7
			cfg.DurationMS = 40
			cfg.WarmupEpochs = 10

			thermal.ResetSteadyMemo()
			solvedRes, solvedStream := runBytes(t, cfg)
			if hits, misses := thermal.SteadyMemoStats(); hits != 0 || misses != 1 {
				t.Fatalf("%s/%v: first run read %d hits, %d misses; want a solve", bench, policy, hits, misses)
			}
			hitRes, hitStream := runBytes(t, cfg)
			if hits, misses := thermal.SteadyMemoStats(); hits != 1 || misses != 1 {
				t.Fatalf("%s/%v: second run read %d hits, %d misses; want a hit", bench, policy, hits, misses)
			}
			if !bytes.Equal(hitRes, solvedRes) {
				t.Errorf("%s/%v: Result from a memoised start differs from a solved one", bench, policy)
			}
			if !bytes.Equal(hitStream, solvedStream) {
				t.Errorf("%s/%v: stream from a memoised start (%d bytes) differs from a solved one's (%d bytes)",
					bench, policy, len(hitStream), len(solvedStream))
			}
		}
	}
}
