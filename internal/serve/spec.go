// Package serve wraps the simulation engine in a long-running HTTP/JSON
// service: clients submit simulation jobs, get a content-derived job ID
// back, stream the run's telemetry as chunked JSONL, and fetch the
// result. The robustness layer is the point of the package — a bounded
// prioritized queue with load shedding, supervised workers that recover
// panics into job-failure records, checkpoint-backed preemption, and
// graceful drain on SIGTERM — see docs/SERVICE.md for the full lifecycle
// and the chaos suite that exercises it.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"thermogater/internal/core"
	"thermogater/internal/fault"
	"thermogater/internal/sim"
	"thermogater/internal/workload"
)

// JobSpec is the submission payload. Everything except Priority is the
// job's identity: two specs that canonicalise to the same JSON are the
// same job (same ID, shared execution, shared cached result) — the
// determinism guarantees of the engine make that dedup free. Priority
// only orders the queue and is excluded from the hash.
type JobSpec struct {
	// Policy and Benchmark name the run (core.ParsePolicy /
	// workload.ByName names, e.g. "pracVT", "lu_ncb").
	Policy    string `json:"policy,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	// Seed drives all stochastic components (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// DurationMS truncates the region of interest when positive.
	DurationMS int `json:"duration_ms,omitempty"`
	// WarmupEpochs overrides the default warmup when positive (0 keeps
	// the engine default).
	WarmupEpochs int `json:"warmup_epochs,omitempty"`
	// SensorNoiseC arms the sensor-noise stressor (°C, one sigma).
	SensorNoiseC float64 `json:"sensor_noise_c,omitempty"`
	// Faults is a fault schedule in the docs/ROBUSTNESS.md mini-language,
	// e.g. "vr-stuck-off@30:unit=12;sensor-noise@0:value=0.1".
	Faults string `json:"faults,omitempty"`
	// Priority orders the queue (higher runs sooner, FIFO within a
	// priority); it is NOT part of the job's identity.
	Priority int `json:"priority,omitempty"`
}

// canonical returns the spec with defaults filled in and identity-neutral
// fields zeroed, so equal jobs hash equally however sparsely the client
// spelled them.
func (s JobSpec) canonical() JobSpec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	s.Priority = 0
	return s
}

// ID is the job's content hash: the first 16 hex digits of the SHA-256 of
// the canonical JSON encoding. encoding/json emits struct fields in
// declaration order, so the encoding — and the ID — is deterministic.
func (s JobSpec) ID() string {
	b, err := json.Marshal(s.canonical())
	if err != nil {
		// A JobSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshalling job spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// maxPriority bounds Priority so a client cannot starve the queue
// arithmetic with extreme values.
const maxPriority = 100

// Validate rejects malformed specs at the API boundary, before anything
// is queued: unparseable policy/benchmark/fault names, out-of-range
// knobs and configurations the engine would reject all fail fast with a
// client-attributable error.
func (s JobSpec) Validate() error {
	if s.Priority > maxPriority || s.Priority < -maxPriority {
		return fmt.Errorf("serve: priority %d out of range [%d, %d]", s.Priority, -maxPriority, maxPriority)
	}
	if s.DurationMS < 0 || s.WarmupEpochs < 0 {
		return fmt.Errorf("serve: negative duration or warmup")
	}
	if !(s.SensorNoiseC >= 0) {
		return fmt.Errorf("serve: sensor noise must be non-negative")
	}
	if s.Faults != "" {
		if _, err := fault.ParseSchedule(s.Faults); err != nil {
			return fmt.Errorf("serve: fault schedule: %w", err)
		}
	}
	return s.validateConfig()
}

// validateConfig checks the engine configuration the spec resolves to,
// so a spec the engine would reject — such as a run no longer than its
// warm-up — is refused at admission instead of queued to fail.
func (s JobSpec) validateConfig() error {
	cfg, err := s.simConfig()
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

func (s JobSpec) policyName() string {
	if s.Policy == "" {
		return "all-on"
	}
	return s.Policy
}

func (s JobSpec) benchmarkName() string {
	if s.Benchmark == "" {
		return "fft"
	}
	return s.Benchmark
}

// simConfig builds the engine configuration for a validated spec;
// telemetry and checkpointing are wired by the caller.
func (s JobSpec) simConfig() (sim.Config, error) {
	c := s.canonical()
	p, err := core.ParsePolicy(c.policyName())
	if err != nil {
		return sim.Config{}, err
	}
	prof, err := workload.ByName(c.benchmarkName())
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(p, prof)
	cfg.Seed = c.Seed
	if c.DurationMS > 0 {
		cfg.DurationMS = c.DurationMS
	}
	if c.WarmupEpochs > 0 {
		cfg.WarmupEpochs = c.WarmupEpochs
	}
	cfg.SensorNoiseC = c.SensorNoiseC
	if c.Faults != "" {
		sched, err := fault.ParseSchedule(c.Faults)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Faults = sched
	}
	return cfg, nil
}
