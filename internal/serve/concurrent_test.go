package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"thermogater/internal/sim"
)

// TestConcurrentMixedJobsMatchDirectRuns is shaped like the svc-short
// workload: two workers run a pracT, an all-on and a pracVT job of one
// (benchmark, seed) concurrently. The pracVT job takes the pracT job's θ
// fit from the memo, and the pracT job is parked once and resumed. Every
// /result and /stream body must equal the bytes a direct, fresh-fit run of
// the same config produces.
func TestConcurrentMixedJobsMatchDirectRuns(t *testing.T) {
	sup := newTestSupervisor(t, Config{Workers: 2, FrozenClock: true})
	ts := httptest.NewServer(NewServer(sup))
	defer ts.Close()

	spec := func(policy string, durationMS int) JobSpec {
		return JobSpec{Policy: policy, Benchmark: "lu_ncb", Seed: 43, DurationMS: durationMS, WarmupEpochs: 10}
	}
	pracT, allOn, pracVT := spec("pracT", 400), spec("all-on", 120), spec("pracVT", 120)
	a, _, err := sup.Submit(pracT)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := sup.Submit(allOn)
	if err != nil {
		t.Fatal(err)
	}
	// pracT's first epoch record follows its θ fit into the memo, so the
	// pracVT job submitted now finds the fit; park pracT while it runs.
	waitStreamLen(t, a, 1)
	c, _, err := sup.Submit(pracVT)
	if err != nil {
		t.Fatal(err)
	}
	for sup.Stats().Preempted == 0 && a.State() == StateRunning {
		if err := sup.Preempt(a.ID); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	for _, j := range []*Job{a, b, c} {
		waitState(t, j, StateDone)
	}
	st := sup.Stats()
	if st.Preempted < 1 {
		t.Fatal("the pracT job finished before a preemption landed")
	}
	if st.ThetaHits < 1 {
		t.Fatalf("no θ-memo hit: %+v", st)
	}

	for _, tc := range []struct {
		j    *Job
		spec JobSpec
	}{{a, pracT}, {b, allOn}, {c, pracVT}} {
		cfg, err := tc.spec.simConfig()
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, direct)
		if got := getBody(t, ts.URL+"/jobs/"+tc.j.ID+"/result", http.StatusOK); !bytes.Equal(got, rec.Body.Bytes()) {
			t.Errorf("%s: /result differs from a direct run", tc.spec.Policy)
		}
		if got := getBody(t, ts.URL+"/jobs/"+tc.j.ID+"/stream", http.StatusOK); !bytes.Equal(got, referenceStream(t, tc.spec)) {
			t.Errorf("%s: /stream differs from a direct run's", tc.spec.Policy)
		}
	}
}
