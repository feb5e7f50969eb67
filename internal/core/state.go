package core

import (
	"errors"
	"fmt"

	"thermogater/internal/stats"
)

// SignatureState is the serializable state of the signature emergency
// detector: the saturating-counter table plus the per-domain pending
// predictions awaiting resolution by ObserveEmergencies.
type SignatureState struct {
	Table   map[uint32]uint8
	Pending []uint32
	HasPend []bool
	Stats   PredictorStats
}

// GovernorState is a deep snapshot of everything a Governor mutates across
// epochs. Capturing it mid-run and restoring it into a freshly constructed
// Governor (same chip, networks and Config) resumes decision-making
// bit-identically — the checkpoint/resume determinism harness in
// internal/sim relies on this.
type GovernorState struct {
	WMA           []stats.WMAState
	Theta         ThetaModel
	LastPerVRLoss []float64
	PrevSensor    []float64
	HaveSensor    bool
	RNG           uint64
	LastEmergency []bool
	LastDemand    []float64
	ActedLast     []bool
	// Signature is nil unless Config.Detector == DetectSignature.
	Signature *SignatureState
}

// State captures the governor's mutable state. The returned value shares
// nothing with the governor.
func (g *Governor) State() *GovernorState {
	s := &GovernorState{
		WMA:           make([]stats.WMAState, len(g.wma)),
		Theta:         g.theta.Clone(),
		LastPerVRLoss: cloneFloats(g.lastPerVRLoss),
		PrevSensor:    cloneFloats(g.prevSensor),
		HaveSensor:    g.haveSensor,
		RNG:           g.rng.State(),
		LastEmergency: cloneBools(g.lastEmergency),
		LastDemand:    cloneFloats(g.lastDemand),
		ActedLast:     cloneBools(g.actedLast),
	}
	for i, w := range g.wma {
		s.WMA[i] = w.State()
	}
	if g.sigPred != nil {
		sig := &SignatureState{
			Table:   make(map[uint32]uint8, len(g.sigPred.table)),
			Pending: append([]uint32(nil), g.sigPred.pending...),
			HasPend: cloneBools(g.sigPred.hasPend),
			Stats:   g.sigPred.stats,
		}
		for k, v := range g.sigPred.table {
			sig.Table[k] = v
		}
		s.Signature = sig
	}
	return s
}

// Restore loads a snapshot previously taken by State into the governor.
// The governor must have been constructed for the same chip and Config;
// shape mismatches are rejected without partially applying the state.
func (g *Governor) Restore(s *GovernorState) error {
	if s == nil {
		return errors.New("core: nil governor state")
	}
	nd, nr := len(g.chip.Domains), len(g.chip.Regulators)
	if len(s.WMA) != nd || len(s.LastEmergency) != nd || len(s.LastDemand) != nd || len(s.ActedLast) != nd {
		return fmt.Errorf("core: governor state sized for %d domains, chip has %d", len(s.WMA), nd)
	}
	if len(s.LastPerVRLoss) != nr || len(s.PrevSensor) != nr {
		return fmt.Errorf("core: governor state sized for %d regulators, chip has %d", len(s.LastPerVRLoss), nr)
	}
	if len(s.Theta.Theta) != 0 && len(s.Theta.Theta) != nr {
		return fmt.Errorf("core: theta state for %d regulators, chip has %d", len(s.Theta.Theta), nr)
	}
	if (g.sigPred != nil) != (s.Signature != nil) {
		return errors.New("core: detector kind mismatch between governor and state")
	}
	if s.Signature != nil {
		if len(s.Signature.Pending) != nd || len(s.Signature.HasPend) != nd {
			return fmt.Errorf("core: signature state sized for %d domains, chip has %d", len(s.Signature.Pending), nd)
		}
	}
	for i, w := range g.wma {
		if err := w.Restore(s.WMA[i]); err != nil {
			return fmt.Errorf("core: wma %d: %w", i, err)
		}
	}
	g.theta = s.Theta.Clone()
	copy(g.lastPerVRLoss, s.LastPerVRLoss)
	copy(g.prevSensor, s.PrevSensor)
	g.haveSensor = s.HaveSensor
	g.rng.SetState(s.RNG)
	copy(g.lastEmergency, s.LastEmergency)
	copy(g.lastDemand, s.LastDemand)
	copy(g.actedLast, s.ActedLast)
	if s.Signature != nil {
		g.sigPred.table = make(map[uint32]uint8, len(s.Signature.Table))
		for k, v := range s.Signature.Table {
			g.sigPred.table[k] = v
		}
		copy(g.sigPred.pending, s.Signature.Pending)
		copy(g.sigPred.hasPend, s.Signature.HasPend)
		g.sigPred.stats = s.Signature.Stats
	}
	return nil
}

func cloneFloats(v []float64) []float64 {
	if v == nil {
		return nil
	}
	return append([]float64(nil), v...)
}

func cloneBools(v []bool) []bool {
	if v == nil {
		return nil
	}
	return append([]bool(nil), v...)
}
