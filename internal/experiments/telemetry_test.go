package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/sim"
	"thermogater/internal/telemetry"
	"thermogater/internal/workload"
)

// lockedSink collects records; Emit is serialized by the registry, but the
// mutex keeps the test honest if that contract ever changes.
type lockedSink struct {
	mu   sync.Mutex
	recs []*telemetry.Record
}

func (s *lockedSink) Emit(r *telemetry.Record) error {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
	return nil
}

func (s *lockedSink) Flush() error { return nil }

func TestRunSweepSharesOneRegistryAcrossWorkers(t *testing.T) {
	reg := telemetry.NewRegistry()
	sink := &lockedSink{}
	reg.AddSink(sink)
	opts := Options{DurationMS: 60, Seed: 1, Telemetry: reg}
	policies := []core.PolicyKind{core.AllOn, core.OracT}

	if _, err := RunSweep(policies, opts); err != nil {
		t.Fatal(err)
	}

	nRuns := len(policies) * len(workload.Suite())
	var runRecs, epochRecs int
	for _, rec := range sink.recs {
		switch rec.Name {
		case "run":
			runRecs++
			if v, ok := rec.Get("policy"); !ok || v == "" {
				t.Errorf("run record missing policy: %+v", rec)
			}
		case "epoch":
			epochRecs++
		}
	}
	if runRecs != nRuns {
		t.Errorf("run records = %d, want %d", runRecs, nRuns)
	}
	if want := nRuns * 60; epochRecs != want {
		t.Errorf("epoch records = %d, want %d", epochRecs, want)
	}
	if got := reg.Counter("sim_epochs_total").Value(); got != float64(nRuns*60) {
		t.Errorf("sim_epochs_total = %v, want %d", got, nRuns*60)
	}
	// The merged span tree must carry both the per-run and per-epoch roots.
	sn := reg.Snapshot()
	names := map[string]int{}
	for _, s := range sn.Spans {
		names[s.Name] = s.Count
	}
	if names["run"] != nRuns {
		t.Errorf("run span count = %d, want %d", names["run"], nRuns)
	}
	if names["epoch"] != nRuns*60 {
		t.Errorf("epoch span count = %d, want %d", names["epoch"], nRuns*60)
	}
}

// cellEvent is one Mutate call or one emitted "run" record, tagged with
// the goroutine it happened on.
type cellEvent struct {
	kind string // "mutate" or "run"
	cell string // benchmark/policy
	goid int64
}

// cellLog records Mutate calls and "run" records in one ordered log.
type cellLog struct {
	mu     sync.Mutex
	events []cellEvent
}

func (l *cellLog) add(kind, cell string) {
	ev := cellEvent{kind: kind, cell: cell, goid: goid()}
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *cellLog) Emit(rec *telemetry.Record) error {
	if rec.Name != "run" {
		return nil
	}
	b, _ := rec.Get("benchmark")
	p, _ := rec.Get("policy")
	l.add("run", fmt.Sprintf("%v/%v", b, p))
	return nil
}

func (l *cellLog) Flush() error { return nil }

// goid is the calling goroutine's ID, read from its stack header
// ("goroutine 42 [running]:").
func goid() int64 {
	var b [64]byte
	s := bytes.TrimPrefix(b[:runtime.Stack(b[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, err := strconv.ParseInt(string(s), 10, 64)
	if err != nil {
		panic(fmt.Sprintf("goid: %q: %v", s, err))
	}
	return id
}

// TestSweepMutateRunsRightBeforeItsCell pins the Options.Mutate contract
// that per-cell timing from outside the sweep depends on: Mutate runs
// exactly once per cell, on the goroutine that then runs that cell, right
// before it. Registry.Emit calls sinks on the emitting worker, so each
// cell's "run" record marks where and when the cell ran.
func TestSweepMutateRunsRightBeforeItsCell(t *testing.T) {
	policies := []core.PolicyKind{core.AllOn, core.OracT}
	nCells := len(policies) * len(workload.Suite())
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			log := &cellLog{}
			reg := telemetry.NewRegistry()
			reg.AddSink(log)
			opts := Options{DurationMS: 40, Seed: 1, Parallel: parallel, Telemetry: reg}
			opts.Mutate = func(policy core.PolicyKind, bench workload.Profile, cfg *sim.Config) {
				log.add("mutate", bench.Name+"/"+policy.String())
			}
			if _, err := RunSweep(policies, opts); err != nil {
				t.Fatal(err)
			}
			if len(log.events) != 2*nCells {
				t.Fatalf("%d events, want a Mutate and a run record for each of %d cells", len(log.events), nCells)
			}
			// Split the log per goroutine: on each, the events must
			// alternate Mutate(c) → run(c).
			perG := map[int64][]cellEvent{}
			for _, ev := range log.events {
				perG[ev.goid] = append(perG[ev.goid], ev)
			}
			if parallel == 1 && len(perG) != 1 {
				t.Errorf("Parallel 1 ran cells on %d goroutines", len(perG))
			}
			if len(perG) > parallel {
				t.Errorf("Parallel %d ran cells on %d goroutines", parallel, len(perG))
			}
			seen := map[string]int{}
			for id, evs := range perG {
				for i, ev := range evs {
					want := "mutate"
					if i%2 == 1 {
						want = "run"
						if ev.cell != evs[i-1].cell {
							t.Errorf("goroutine %d: run %s follows Mutate %s", id, ev.cell, evs[i-1].cell)
						}
					}
					if ev.kind != want {
						t.Fatalf("goroutine %d: event %d is %s %s, want %s", id, i, ev.kind, ev.cell, want)
					}
					if ev.kind == "mutate" {
						seen[ev.cell]++
					}
				}
				if len(evs)%2 != 0 {
					t.Errorf("goroutine %d: Mutate %s without its run", id, evs[len(evs)-1].cell)
				}
			}
			if len(seen) != nCells {
				t.Errorf("Mutate saw %d distinct cells, want %d", len(seen), nCells)
			}
			for cell, n := range seen {
				if n != 1 {
					t.Errorf("Mutate ran %d times for %s, want once", n, cell)
				}
			}
		})
	}
}
