package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRegistry builds a deterministic registry state shared by the
// golden-file tests.
func fixtureRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	advance := manualClock(r)
	r.Counter("sim_epochs_total").Add(2)
	r.Counter("pdn_solves_total", L("kind", "steady")).Add(320)
	r.Counter("pdn_solves_total", L("kind", "transient")).Add(12)
	r.Gauge("run_max_temp_c").Set(92.5)
	h := r.Histogram("epoch_wall_ms", []float64{1, 5, 25})
	h.Observe(0.4)
	h.Observe(3)
	h.Observe(120)
	for e := 0; e < 2; e++ {
		ep := r.StartSpan("epoch")
		for _, phase := range []struct {
			name string
			d    time.Duration
		}{
			{"uarch", 2 * time.Millisecond},
			{"power", time.Millisecond},
			{"governor", 3 * time.Millisecond},
			{"vr", 500 * time.Microsecond},
			{"thermal", 4 * time.Millisecond},
			{"pdn", 1500 * time.Microsecond},
		} {
			ph := ep.StartChild(phase.name)
			advance(phase.d)
			ph.End()
		}
		advance(250 * time.Microsecond) // unattributed epoch overhead
		ep.End()
	}
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func fixtureRecords() []*Record {
	return []*Record{
		NewRecord("epoch").Int("epoch", 0).Float("time_ms", 0.0).
			Int("wall_ns", 12250000).Int("active_vrs", 96).Float("max_temp_c", 88.25),
		NewRecord("epoch").Int("epoch", 1).Float("time_ms", 1.0).
			Int("wall_ns", 12250000).Int("active_vrs", 41).Float("max_temp_c", 92.5),
		NewRecord("run").Str("policy", "oracT").Int("epoch", 2),
	}
}

func TestJSONLSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	for _, rec := range fixtureRecords() {
		if err := s.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "records.jsonl.golden", buf.Bytes())
}

func TestCSVSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSVSink(&buf)
	for _, rec := range fixtureRecords() {
		if err := s.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "records.csv.golden", buf.Bytes())
}

func TestSnapshotExportGolden(t *testing.T) {
	sn := fixtureRegistry(t).Snapshot()

	var summary bytes.Buffer
	if err := WriteSummary(&summary, sn); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary.golden", summary.Bytes())
}

func TestRegistryEmitFansOutToSinks(t *testing.T) {
	r := NewRegistry()
	var a, b bytes.Buffer
	r.AddSink(NewJSONLSink(&a))
	r.AddSink(NewJSONLSink(&b))
	if err := r.Emit(NewRecord("epoch").Int("epoch", 7)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"record":"epoch","epoch":7}` + "\n"
	if a.String() != want || b.String() != want {
		t.Fatalf("fan-out wrong: %q / %q", a.String(), b.String())
	}
}

// boxedJSONL is the reference encoder the typed one replaced: every name,
// key and value boxed and run through json.Marshal, with fmt.Sprint's
// text quoted for the values JSON cannot hold (NaN, ±Inf).
func boxedJSONL(rec *Record) []byte {
	value := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			b, _ = json.Marshal(fmt.Sprint(v))
		}
		return b
	}
	out := append([]byte(`{"record":`), value(rec.Name)...)
	for _, f := range rec.Fields {
		out = append(out, ',')
		out = append(out, value(f.Key)...)
		out = append(out, ':')
		out = append(out, value(f.Value())...)
	}
	return append(out, "}\n"...)
}

// FuzzJSONLEncoding differentially checks JSONLSink against encoding/json:
// one record per input, carrying every field kind, with the fuzzed string
// as record name, key and value, must encode to the same bytes.
func FuzzJSONLEncoding(f *testing.F) {
	for _, x := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		1e21, 9.99e20, -1e21, 1e-6, 1e-7, -1.5e-7, 5e-324, math.MaxFloat64,
		0.1, 88.25, 123456789.125, 1e20,
	} {
		f.Add(int64(0), x, false, "max_temp_c")
	}
	for _, n := range []int64{math.MaxInt64, math.MinInt64, -1, 12250000} {
		f.Add(n, 1.0, true, "wall_ns")
	}
	for _, s := range []string{
		"", "plain ascii", " ", "a<b>&c", "a<b", "b>a", "a&b", `a"b`, `a\b`,
		"\b", "\f", "a\nb", "\t", "\x00", "\x1f", "\x7f", "\u00a0", "\u2028\u2029",
		"\xff\xfe", "caf\xc3\xa9", "°C", "\xe2\x28\xa1",
	} {
		f.Add(int64(7), 92.5, true, s)
	}
	f.Fuzz(func(t *testing.T, n int64, x float64, b bool, s string) {
		rec := NewRecord(s).Int("int", n).Float("float", x).Bool("bool", b).
			Str("str", s).Float(s, x)
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		if err := sink.Emit(rec); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := boxedJSONL(rec); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("typed encoder differs from encoding/json\n got %q\nwant %q", buf.Bytes(), want)
		}
	})
}

// TestRecordReuseAndClone pins the reuse contract: Reset keeps the field
// storage, so a refilled record allocates nothing, while a Clone taken
// before the refill keeps the old values.
func TestRecordReuseAndClone(t *testing.T) {
	rec := NewRecord("epoch").Int("epoch", 1).Float("time_ms", 1).Bool("measuring", true).Str("policy", "oracT")
	kept := rec.Clone()
	refill := func() {
		rec.Reset("epoch").Int("epoch", 2).Float("time_ms", 2).Bool("measuring", false).Str("policy", "pracVT")
	}
	if avg := testing.AllocsPerRun(10, refill); avg != 0 {
		t.Fatalf("refilling a reset record: %v allocations, want 0", avg)
	}
	for key, want := range map[string]any{"epoch": int64(1), "time_ms": 1.0, "measuring": true, "policy": "oracT"} {
		if got, ok := kept.Get(key); !ok || got != want {
			t.Errorf("clone %s = %v (%T), want %v (%T)", key, got, got, want, want)
		}
	}
	if got, _ := rec.Get("epoch"); got != int64(2) {
		t.Errorf("refilled epoch = %v, want 2", got)
	}
	if _, ok := rec.Get("missing"); ok {
		t.Error("Get found a key the record does not carry")
	}

	sink := NewJSONLSink(io.Discard)
	emit := func() {
		if err := sink.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}
	emit()
	if avg := testing.AllocsPerRun(10, emit); avg != 0 {
		t.Fatalf("JSONLSink.Emit: %v allocations, want 0", avg)
	}
}

// BenchmarkJSONLEpochRecord times building and encoding one record of the
// simulator's per-epoch shape (20 fields) into a JSONL sink.
func BenchmarkJSONLEpochRecord(b *testing.B) {
	sink := NewJSONLSink(io.Discard)
	rec := NewRecord("epoch")
	phases := []string{"uarch_ns", "power_ns", "governor_ns", "vr_ns", "thermal_ns", "pdn_ns"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Reset("epoch").Int("epoch", int64(i)).Float("time_ms", float64(i)).
			Bool("measuring", i > 20).Int("wall_ns", 169210)
		for _, key := range phases {
			rec.Int(key, 20350)
		}
		rec.Int("thermal_substeps", 10).Int("pdn_steady_solves", 320).
			Int("pdn_transient_solves", 0).Int("active_vrs", 54).
			Float("chip_power_w", 81.94286094355873).Float("ploss_w", 9.030009775392405).
			Float("max_temp_c", 70.63757411073127).Float("gradient_c", 12.67351759475771).
			Float("max_noise_pct", 7.241273806193434).Int("emergency_overrides", 1)
		if err := sink.Emit(rec); err != nil {
			b.Fatal(err)
		}
	}
}
