package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"thermogater/internal/aging"
	"thermogater/internal/core"
	"thermogater/internal/dvfs"
	"thermogater/internal/fault"
	"thermogater/internal/pdn"
	"thermogater/internal/thermal"
	"thermogater/internal/uarch"
)

// CheckpointSchema identifies the checkpoint wire format; bump on any
// incompatible change to Checkpoint or the states it embeds.
const CheckpointSchema = "thermogater/checkpoint/v1"

// CheckpointConfig enables periodic run snapshots. After every
// EveryEpochs-th completed epoch the runner assembles a Checkpoint and
// hands it to Sink; a sink error aborts the run (which is also how the
// kill-and-resume tests interrupt a run deterministically). The zero value
// disables checkpointing.
type CheckpointConfig struct {
	// EveryEpochs is the snapshot period; 0 disables.
	EveryEpochs int
	// Sink receives each snapshot, e.g. writing it to disk via Encode.
	Sink func(*Checkpoint) error
}

func (c CheckpointConfig) validate() error {
	if c.EveryEpochs < 0 {
		return errors.New("sim: negative checkpoint period")
	}
	if c.EveryEpochs > 0 && c.Sink == nil {
		return errors.New("sim: checkpoint period set without a sink")
	}
	return nil
}

// MeasureState holds the measured-loop accumulators so a resumed run
// continues the aggregation exactly where the interrupted one stopped.
// All fields mirror what used to be locals of the epoch loop.
type MeasureState struct {
	MeasuredTime    float64
	EmergencyTime   float64
	PlossIntegral   float64
	ChipPowerInt    float64
	EtaWeighted     float64
	EtaWeight       float64
	WorstNoise      float64
	SampledWorst    float64
	MeasuredSteps   int
	MeasuredEpochs  int
	HeatMapDeadline int
	DvfsVddSum      []float64
	DvfsPerfSum     float64
	Res             *Result
}

// Checkpoint is a complete snapshot of a run after some epoch: every piece
// of cross-epoch mutable state, from the activity simulator's RNGs to the
// governor's predictor tables to the partially aggregated result. A run
// resumed from a checkpoint is bit-identical — including its streamed
// telemetry records — to the same run never interrupted; the determinism
// harness in checkpoint_test.go is the oracle for that claim.
//
// Deliberately NOT checkpointed (recomputed every epoch from checkpointed
// state): the gating masks, the DVFS power-scaling factors, per-epoch
// scratch buffers, and the telemetry instrument baselines (realigned via
// syncBaselines against the restored solver counters).
type Checkpoint struct {
	// Schema is CheckpointSchema; ReadCheckpoint rejects anything else.
	Schema string
	// Policy, Benchmark and Seed identify the run; Restore rejects a
	// checkpoint taken from a differently configured runner.
	Policy    string
	Benchmark string
	Seed      uint64
	// Epoch is the last completed epoch; the resumed run starts at Epoch+1.
	Epoch int

	Uarch         *uarch.State
	Thermal       *thermal.State
	Governor      *core.GovernorState
	RNG           uint64
	SensorVRTemps []float64
	PrevDomainCur []float64
	PerVRLoss     []float64
	FaultActGood  []float64
	DVFS          *dvfs.State
	Aging         *aging.State
	Fault         *fault.State

	PDNSteadySolves    int64
	PDNTransientSolves int64

	Measure MeasureState
}

// Checkpoints are framed on the wire so a half-written or bit-rotted file
// is a diagnosable error, not a gob panic or a silent restart-from-scratch:
//
//	magic "TGCKPT1\n" | uint64 LE payload length | uint32 LE CRC-32 (IEEE)
//	of the payload | gob payload
//
// The length bounds the read before any allocation, and the checksum is
// verified before gob ever sees a byte, so every corruption mode —
// truncation, bit flips, a foreign file — surfaces as a *CorruptError
// carrying the byte offset where the frame stopped making sense.
const checkpointMagic = "TGCKPT1\n"

// checkpointHeaderLen is magic + length + checksum.
const checkpointHeaderLen = len(checkpointMagic) + 8 + 4

// maxCheckpointPayload caps the length field so a corrupted header cannot
// drive an arbitrarily large allocation. Real checkpoints are megabytes at
// the very most.
const maxCheckpointPayload = 1 << 31

// ErrCorruptCheckpoint is the sentinel every corruption failure matches:
// errors.Is(err, ErrCorruptCheckpoint) distinguishes "this file is damaged"
// (keep it for forensics, restart from scratch or an older snapshot) from
// I/O or schema-version errors. The concrete error is a *CorruptError with
// the byte offset.
var ErrCorruptCheckpoint = errors.New("sim: corrupt checkpoint")

// CorruptError reports a damaged checkpoint frame: truncated, checksum
// mismatch, bad magic, or a gob stream the checksum somehow failed to
// protect. It matches ErrCorruptCheckpoint under errors.Is.
type CorruptError struct {
	// Offset is the byte offset into the checkpoint stream at which the
	// corruption was detected: where a truncated read stopped, or the
	// start of the region (magic, length field, payload) that failed
	// validation.
	Offset int64
	// Err describes the specific failure.
	Err error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("sim: corrupt checkpoint at byte %d: %v", e.Offset, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrCorruptCheckpoint) hold for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorruptCheckpoint }

// Encode serialises the checkpoint as one framed record: header (magic,
// payload length, CRC-32) followed by the gob payload.
func (c *Checkpoint) Encode(w io.Writer) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return fmt.Errorf("sim: encoding checkpoint: %w", err)
	}
	payload := buf.Bytes()
	var hdr [checkpointHeaderLen]byte
	copy(hdr[:], checkpointMagic)
	binary.LittleEndian.PutUint64(hdr[len(checkpointMagic):], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[len(checkpointMagic)+8:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadCheckpoint deserialises a checkpoint written by Encode, verifying the
// frame (magic, length, checksum) before decoding and the schema tag after.
// Damage of any kind returns a *CorruptError (match with
// errors.Is(err, ErrCorruptCheckpoint)); a schema-version mismatch — a
// well-formed frame from an incompatible build — is a plain error.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var hdr [checkpointHeaderLen]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil {
		return nil, &CorruptError{Offset: int64(n), Err: fmt.Errorf("frame header truncated after %d of %d bytes: %w", n, checkpointHeaderLen, err)}
	}
	if string(hdr[:len(checkpointMagic)]) != checkpointMagic {
		return nil, &CorruptError{Offset: 0, Err: fmt.Errorf("bad magic %q (not a framed checkpoint)", hdr[:len(checkpointMagic)])}
	}
	length := binary.LittleEndian.Uint64(hdr[len(checkpointMagic) : len(checkpointMagic)+8])
	if length > maxCheckpointPayload {
		return nil, &CorruptError{Offset: int64(len(checkpointMagic)), Err: fmt.Errorf("implausible payload length %d", length)}
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[len(checkpointMagic)+8:])
	payload := make([]byte, length)
	n, err = io.ReadFull(r, payload)
	if err != nil {
		return nil, &CorruptError{Offset: int64(checkpointHeaderLen + n), Err: fmt.Errorf("payload truncated after %d of %d bytes: %w", n, length, err)}
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, &CorruptError{Offset: int64(checkpointHeaderLen), Err: fmt.Errorf("payload checksum %08x, header says %08x", got, wantCRC)}
	}
	c, err := decodeCheckpoint(payload)
	if err != nil {
		return nil, &CorruptError{Offset: int64(checkpointHeaderLen), Err: err}
	}
	if c.Schema != CheckpointSchema {
		return nil, fmt.Errorf("sim: checkpoint schema %q, want %q", c.Schema, CheckpointSchema)
	}
	return c, nil
}

// decodeCheckpoint gob-decodes a checksum-verified payload. The recover
// guard exists because encoding/gob has historically panicked on
// pathological inputs; with the CRC in front this should be unreachable,
// but a panic here must never take down a serve worker.
func decodeCheckpoint(payload []byte) (c *Checkpoint, err error) {
	defer func() {
		if p := recover(); p != nil {
			c, err = nil, fmt.Errorf("gob decode panicked: %v", p)
		}
	}()
	c = new(Checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(c); err != nil {
		return nil, fmt.Errorf("gob: %w", err)
	}
	return c, nil
}

// clone deep-copies the measure state so neither a checkpoint nor a run
// resumed from one aliases buffers another run keeps mutating.
//
//perf:alloc checkpoint capture deep-copies by design; runs only on checkpoint epochs
func (m MeasureState) clone() MeasureState {
	m.DvfsVddSum = append([]float64(nil), m.DvfsVddSum...)
	m.Res = cloneResult(m.Res)
	return m
}

// cloneResult deep-copies a partially aggregated result, preserving the
// nil-ness of every optional slice (gob round-trips rely on that).
//
//perf:alloc checkpoint capture deep-copies by design; runs only on checkpoint epochs
func cloneResult(res *Result) *Result {
	if res == nil {
		return nil
	}
	c := *res
	c.VROnFrac = append([]float64(nil), res.VROnFrac...)
	c.MTTFYears = append([]float64(nil), res.MTTFYears...)
	c.DVFSAvgVddV = append([]float64(nil), res.DVFSAvgVddV...)
	c.Trace = append([]EpochStats(nil), res.Trace...)
	c.VRTrace = append([]VRSample(nil), res.VRTrace...)
	if res.HeatMap != nil {
		c.HeatMap = make([][]float64, len(res.HeatMap))
		for i, row := range res.HeatMap {
			c.HeatMap[i] = append([]float64(nil), row...)
		}
	}
	if res.WorstNoise != nil {
		w := *res.WorstNoise
		w.BlockCurrent = append([]float64(nil), res.WorstNoise.BlockCurrent...)
		w.Active = append([]bool(nil), res.WorstNoise.Active...)
		w.Bursts = append([]pdn.Burst(nil), res.WorstNoise.Bursts...)
		c.WorstNoise = &w
	}
	return &c
}

// snapshot assembles the checkpoint for the just-completed epoch e.
// ustate is the activity simulator's state right after that epoch's
// frames were generated (see produceEpoch).
//
//perf:alloc checkpoint assembly allocates by design; runs only on checkpoint epochs
func (r *Runner) snapshot(e int, ustate *uarch.State, ms *MeasureState) *Checkpoint {
	cp := &Checkpoint{
		Schema:             CheckpointSchema,
		Policy:             r.cfg.Policy.String(),
		Benchmark:          r.cfg.benchmarkLabel(),
		Seed:               r.cfg.Seed,
		Epoch:              e,
		Uarch:              ustate,
		Thermal:            r.tm.State(),
		Governor:           r.gov.State(),
		RNG:                r.rng.State(),
		SensorVRTemps:      append([]float64(nil), r.sensorVRTemps...),
		PrevDomainCur:      append([]float64(nil), r.prevDomainCur...),
		PerVRLoss:          append([]float64(nil), r.perVRLoss...),
		PDNSteadySolves:    r.pdnSteadySolves,
		PDNTransientSolves: r.pdnTransientSolves,
		Measure:            ms.clone(),
	}
	if r.faultActGood != nil {
		cp.FaultActGood = append([]float64(nil), r.faultActGood...)
	}
	if r.vf != nil {
		cp.DVFS = r.vf.State()
	}
	if r.wear != nil {
		cp.Aging = r.wear.State()
	}
	if r.flt != nil {
		cp.Fault = r.flt.State()
	}
	return cp
}

// Restore loads a checkpoint into a freshly constructed runner (same
// Config) so the next Run continues from Checkpoint.Epoch+1. It applies
// the thermal, governor, RNG, DVFS, aging and fault-injector state
// immediately and stashes the rest for the measured loop; identity or
// shape mismatches are rejected before anything is applied.
func (r *Runner) Restore(cp *Checkpoint) error {
	if cp == nil {
		return errors.New("sim: nil checkpoint")
	}
	if cp.Schema != CheckpointSchema {
		return fmt.Errorf("sim: checkpoint schema %q, want %q", cp.Schema, CheckpointSchema)
	}
	if cp.Policy != r.cfg.Policy.String() || cp.Benchmark != r.cfg.benchmarkLabel() || cp.Seed != r.cfg.Seed {
		return fmt.Errorf("sim: checkpoint is for %s/%s seed %d, runner is %s/%s seed %d",
			cp.Policy, cp.Benchmark, cp.Seed, r.cfg.Policy, r.cfg.benchmarkLabel(), r.cfg.Seed)
	}
	if cp.Epoch < 0 || cp.Uarch == nil || cp.Thermal == nil || cp.Governor == nil || cp.Measure.Res == nil {
		return errors.New("sim: incomplete checkpoint")
	}
	nr, nd := len(r.chip.Regulators), len(r.chip.Domains)
	if len(cp.SensorVRTemps) != nr || len(cp.PerVRLoss) != nr || len(cp.PrevDomainCur) != nd {
		return errors.New("sim: checkpoint state shape does not match the chip")
	}
	if (r.vf != nil) != (cp.DVFS != nil) {
		return errors.New("sim: checkpoint DVFS state does not match the configuration")
	}
	if (r.wear != nil) != (cp.Aging != nil) {
		return errors.New("sim: checkpoint aging state does not match the configuration")
	}
	if (r.flt != nil) != (cp.Fault != nil) {
		return errors.New("sim: checkpoint fault state does not match the configuration")
	}
	if err := r.tm.Restore(cp.Thermal); err != nil {
		return err
	}
	if err := r.gov.Restore(cp.Governor); err != nil {
		return err
	}
	r.rng.SetState(cp.RNG)
	copy(r.sensorVRTemps, cp.SensorVRTemps)
	copy(r.prevDomainCur, cp.PrevDomainCur)
	copy(r.perVRLoss, cp.PerVRLoss)
	if r.faultActGood != nil && len(cp.FaultActGood) == len(r.faultActGood) {
		copy(r.faultActGood, cp.FaultActGood)
	}
	if r.vf != nil {
		if err := r.vf.Restore(cp.DVFS); err != nil {
			return err
		}
	}
	if r.wear != nil {
		if err := r.wear.Restore(cp.Aging); err != nil {
			return err
		}
	}
	if r.flt != nil {
		if err := r.flt.Restore(cp.Fault); err != nil {
			return err
		}
	}
	r.pdnSteadySolves = cp.PDNSteadySolves
	r.pdnTransientSolves = cp.PDNTransientSolves
	r.resume = cp
	return nil
}
