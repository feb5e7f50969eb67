package sim

import (
	"io"
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/telemetry"
	"thermogater/internal/workload"
)

func benchmarkRunner(b *testing.B, reg *telemetry.Registry) {
	b.Helper()
	bench, err := workload.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(core.OracT, bench)
	cfg.DurationMS = 100
	cfg.WarmupEpochs = 10
	cfg.Telemetry = reg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunner is the telemetry-overhead reference: the closed loop with
// instrumentation disabled (nil registry — the zero-cost fast path).
func BenchmarkRunner(b *testing.B) {
	benchmarkRunner(b, nil)
}

// BenchmarkRunnerTelemetry is the same loop with a live registry and a
// JSONL sink draining to io.Discard; compare against BenchmarkRunner to
// measure the enabled-instrumentation overhead.
func BenchmarkRunnerTelemetry(b *testing.B) {
	reg := telemetry.NewRegistry()
	reg.AddSink(telemetry.NewJSONLSink(io.Discard))
	benchmarkRunner(b, reg)
}

// BenchmarkProfileTheta is one θ-profiling pass (profile.go): the cost a
// practical run pays when no ThetaMemo holds its fit.
func BenchmarkProfileTheta(b *testing.B) {
	bench, err := workload.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	r, err := New(DefaultConfig(core.PracT, bench))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.profileTheta(); err != nil {
			b.Fatal(err)
		}
	}
}
