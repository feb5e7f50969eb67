package core

import (
	"errors"
	"fmt"
	"math"

	"thermogater/internal/floorplan"
	"thermogater/internal/pdn"
	"thermogater/internal/stats"
	"thermogater/internal/vr"
	"thermogater/internal/workload"
)

// Config parameterises the governor.
type Config struct {
	// Policy selects the gating policy.
	Policy PolicyKind
	// EpochMS is the gating decision interval (1ms in the paper).
	EpochMS float64
	// SensorDelayMS is the thermal sensor staleness PracT works against
	// (100µs in the paper, from 10K-readings/s sensors plus firmware
	// overhead).
	SensorDelayMS float64
	// WMAWindow is the demand forecaster window (3 decision points).
	WMAWindow int
	// EmergencyAccuracy is PracVT's voltage-emergency detector hit rate
	// (>90% per Reddi et al.).
	EmergencyAccuracy float64
	// EmergencyFalseRate is the detector's false-alarm probability per
	// domain per decision.
	EmergencyFalseRate float64
	// Detector selects PracVT's emergency anticipation mechanism: the
	// paper's abstract >90%-accuracy detector (stochastic over ground
	// truth) or the concrete Reddi-style signature predictor that learns
	// from observable state only.
	Detector DetectorKind
	// TrendGain is PracT's sensor-trend compensation: the anticipated
	// regulator temperature of Eqn. 2 is extrapolated by TrendGain x the
	// temperature change observed between the last two sensor readings.
	// A regulator whose thermal time constant is comparable to the
	// decision period is still mid-transient at each decision point; the
	// trend term lets the practical policy anticipate the residual rise
	// the way the oracle's exact predictor does, using nothing but sensor
	// history. For a first-order node sampled at the decision period T
	// with time constant tau, the residual rise is exp(-T/tau) times the
	// observed rise; 0.45 matches the calibrated tau of 1.2ms.
	TrendGain float64
	// ThermalEmergencyC is the fail-safe limit: when any of a domain's
	// regulator sensors reads at or above this temperature, the domain is
	// forced to all-on regardless of policy — spreading the load over every
	// phase is the safe state when the thermal picture is alarming (or, with
	// faulted sensors, no longer trustworthy). Zero disables the fail-safe.
	// The default of 115°C sits well above any healthy operating point and
	// below the 150°C junction limit, so it only trips under genuine (or
	// injected) thermal emergencies.
	ThermalEmergencyC float64
	// Seed drives the stochastic emergency detector.
	Seed uint64
	// CustomRank supplies the regulator preference order for the Custom
	// policy: given a domain, the decision inputs and the domain's
	// anticipated demand and active count, it returns the domain's
	// regulator local indices most-preferred first. Required when Policy
	// is Custom; ignored otherwise.
	CustomRank func(domain int, in *Inputs, demandA float64, count int) []int
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig(policy PolicyKind) Config {
	return Config{
		Policy:             policy,
		EpochMS:            1.0,
		SensorDelayMS:      0.1,
		WMAWindow:          3,
		EmergencyAccuracy:  0.90,
		EmergencyFalseRate: 0.01,
		TrendGain:          0.45,
		ThermalEmergencyC:  115,
		Seed:               1,
	}
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.Policy < 0 || c.Policy >= NumPolicies {
		return fmt.Errorf("core: unknown policy %d", int(c.Policy))
	}
	// Bounds are phrased as !(inside) so NaN — for which every comparison
	// is false — lands on the rejecting branch instead of slipping through.
	if !(c.EpochMS > 0) || math.IsInf(c.EpochMS, 1) {
		return errors.New("core: epoch must be positive and finite")
	}
	if !(c.SensorDelayMS >= 0 && c.SensorDelayMS <= c.EpochMS) {
		return errors.New("core: sensor delay outside [0, epoch]")
	}
	if c.WMAWindow < 1 {
		return errors.New("core: WMA window must be at least 1")
	}
	if !(c.EmergencyAccuracy >= 0 && c.EmergencyAccuracy <= 1) {
		return errors.New("core: emergency accuracy outside [0,1]")
	}
	if !(c.EmergencyFalseRate >= 0 && c.EmergencyFalseRate <= 1) {
		return errors.New("core: false alarm rate outside [0,1]")
	}
	if !(c.TrendGain >= 0 && c.TrendGain <= 1) {
		return errors.New("core: trend gain outside [0,1]")
	}
	if !(c.ThermalEmergencyC >= 0) || math.IsInf(c.ThermalEmergencyC, 1) {
		return errors.New("core: thermal emergency limit must be finite and non-negative")
	}
	if c.Policy == Custom && c.CustomRank == nil {
		return errors.New("core: Custom policy needs CustomRank")
	}
	return nil
}

// Inputs is everything a policy may consult at one decision point. The
// simulator fills the oracle fields from the *upcoming* interval's truth;
// practical policies only read history and stale sensors.
type Inputs struct {
	// Epoch is the decision index.
	Epoch int
	// PrevDomainCurrent is the previous interval's average load current
	// per domain (amps) — observable history.
	PrevDomainCurrent []float64
	// SensorVRTemps are the regulator temperatures as the (delayed)
	// sensors report them.
	SensorVRTemps []float64
	// VRTemps are the true instantaneous regulator temperatures (the
	// greedy Naïve policy is granted these; practical policies are not).
	VRTemps []float64
	// FutureDomainCurrent is the upcoming interval's true average demand
	// per domain (oracles only).
	FutureDomainCurrent []float64
	// FutureBlockCurrent is the upcoming interval's true per-block current
	// map (oracles only).
	FutureBlockCurrent []float64
	// PredictVRTempOn returns the temperature regulator vr would reach by
	// the next decision point if kept on dissipating plossW (oracles only;
	// the simulator implements it with the exact thermal model).
	PredictVRTempOn func(vrID int, plossW float64) float64
	// DomainEmergency reports whether running the domain with the first
	// `count` regulators of `ranking` active would trigger a voltage
	// emergency during the upcoming interval (ground truth; OracVT uses it
	// directly, PracVT through the stochastic detector).
	DomainEmergency func(domain, count int, ranking []int) bool
}

// DomainDecision is the gating decision for one Vdd-domain: activate the
// first Count regulators of Ranking (local indices into
// Domain.Regulators). The simulator may raise the count — never reorder —
// when the actual demand turns out to need more regulators than
// anticipated (the per-phase current limit is a hard constraint).
type DomainDecision struct {
	Count   int
	Ranking []int
	// EmergencyOverride records that a voltage-emergency alert forced the
	// domain to all-on this interval.
	EmergencyOverride bool
	// ThermalOverride records that the fail-safe thermal limit
	// (Config.ThermalEmergencyC) forced the domain to all-on this interval,
	// spreading the conversion loss across every regulator to cool the
	// hottest one.
	ThermalOverride bool
}

// Decision is the chip-wide gating decision for one interval.
type Decision struct {
	Domains []DomainDecision
}

// ActiveCount returns the total number of active regulators.
func (d *Decision) ActiveCount() int {
	n := 0
	for _, dd := range d.Domains {
		n += dd.Count
	}
	return n
}

// Governor is the ThermoGater control loop of Fig. 3: it monitors power
// demand plus thermal and voltage profiles per Vdd-domain and decides,
// every epoch, which regulators to keep on.
type Governor struct {
	chip     *floorplan.Chip
	networks []*vr.Network
	grid     *pdn.Network
	cfg      Config

	wma           []*stats.WMA
	theta         ThetaModel
	lastPerVRLoss []float64
	prevSensor    []float64
	haveSensor    bool
	rng           *workload.RNG

	sigPred       *signaturePredictor
	lastEmergency []bool
	lastDemand    []float64
	actedLast     []bool

	// Decision scratch, reused across Decide calls so a steady-state
	// decision allocates nothing (see Decide's ownership contract).
	// identity holds one read-only identity ranking per domain; rankBuf
	// one mutable ranking buffer per domain; rankKeys/rankSeen/critBuf
	// are sized for the largest domain and reused serially.
	dec      Decision
	identity [][]int
	rankBuf  [][]int
	rankKeys []float64
	rankSeen []bool
	critBuf  []float64
}

// NewGovernor builds a governor for the chip. networks holds one regulator
// network per Vdd-domain (indexed like chip.Domains).
func NewGovernor(chip *floorplan.Chip, networks []*vr.Network, grid *pdn.Network, cfg Config) (*Governor, error) {
	if chip == nil {
		return nil, errors.New("core: nil chip")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(networks) != len(chip.Domains) {
		return nil, fmt.Errorf("core: %d networks for %d domains", len(networks), len(chip.Domains))
	}
	for i, nw := range networks {
		if nw == nil {
			return nil, fmt.Errorf("core: nil network for domain %d", i)
		}
		if nw.Size() != len(chip.Domains[i].Regulators) {
			return nil, fmt.Errorf("core: network %d sized %d, domain has %d regulators",
				i, nw.Size(), len(chip.Domains[i].Regulators))
		}
	}
	if grid == nil && (cfg.Policy == OracV || cfg.Policy == OracVT || cfg.Policy == PracVT) {
		return nil, fmt.Errorf("core: policy %v needs a PDN model", cfg.Policy)
	}
	g := &Governor{
		chip:          chip,
		networks:      networks,
		grid:          grid,
		cfg:           cfg,
		lastPerVRLoss: make([]float64, len(chip.Regulators)),
		prevSensor:    make([]float64, len(chip.Regulators)),
		rng:           workload.NewRNG(cfg.Seed ^ 0xe6e7),
		lastEmergency: make([]bool, len(chip.Domains)),
		lastDemand:    make([]float64, len(chip.Domains)),
		actedLast:     make([]bool, len(chip.Domains)),
	}
	if cfg.Detector == DetectSignature {
		g.sigPred = newSignaturePredictor(len(chip.Domains))
	}
	g.wma = make([]*stats.WMA, len(chip.Domains))
	for i := range g.wma {
		w, err := stats.NewWMA(cfg.WMAWindow)
		if err != nil {
			return nil, err
		}
		g.wma[i] = w
	}
	g.dec.Domains = make([]DomainDecision, len(chip.Domains))
	g.identity = make([][]int, len(chip.Domains))
	g.rankBuf = make([][]int, len(chip.Domains))
	maxN := 0
	for d := range chip.Domains {
		n := len(chip.Domains[d].Regulators)
		if n > maxN {
			maxN = n
		}
		g.identity[d] = make([]int, n)
		for i := range g.identity[d] {
			g.identity[d][i] = i
		}
		g.rankBuf[d] = make([]int, n)
	}
	g.rankKeys = make([]float64, maxN)
	g.rankSeen = make([]bool, maxN)
	g.critBuf = make([]float64, maxN)
	return g, nil
}

// Config returns the governor configuration.
func (g *Governor) Config() Config { return g.cfg }

// SetTheta installs the Eqn. 2 predictor extracted from a profiling pass;
// required before PracT/PracVT decisions.
func (g *Governor) SetTheta(m ThetaModel) error {
	if len(m.Theta) != len(g.chip.Regulators) {
		return fmt.Errorf("core: theta for %d regulators, chip has %d", len(m.Theta), len(g.chip.Regulators))
	}
	g.theta = m
	return nil
}

// Theta returns the installed predictor (empty until SetTheta).
func (g *Governor) Theta() ThetaModel { return g.theta }

// Observe feeds back the completed interval's actual per-domain currents
// and per-regulator losses: the demand history drives the WMA forecaster,
// the loss history anchors ΔP in Eqn. 2.
func (g *Governor) Observe(domainCurrent, perVRLoss []float64) error {
	if len(domainCurrent) != len(g.chip.Domains) {
		return fmt.Errorf("core: %d domain currents, chip has %d domains", len(domainCurrent), len(g.chip.Domains))
	}
	if len(perVRLoss) != len(g.chip.Regulators) {
		return fmt.Errorf("core: %d VR losses, chip has %d regulators", len(perVRLoss), len(g.chip.Regulators))
	}
	for d, c := range domainCurrent {
		g.wma[d].Observe(c)
	}
	copy(g.lastDemand, domainCurrent)
	copy(g.lastPerVRLoss, perVRLoss)
	return nil
}

// ObserveEmergencies feeds back which domains actually experienced a
// voltage emergency during the completed interval; the signature detector
// learns from it and the VT policies use it as the persistence signal.
func (g *Governor) ObserveEmergencies(actual []bool) error {
	if len(actual) != len(g.chip.Domains) {
		return fmt.Errorf("core: %d emergency flags, chip has %d domains", len(actual), len(g.chip.Domains))
	}
	for d, e := range actual {
		if g.sigPred != nil {
			g.sigPred.learn(d, e, g.actedLast[d])
			// A suppressed alert still marks the interval as droop-prone
			// for the next signature.
			g.lastEmergency[d] = e || g.actedLast[d]
		} else {
			g.lastEmergency[d] = e
		}
	}
	return nil
}

// DetectorStats returns the signature detector's confusion matrix; the
// zero value is returned for the stochastic detector.
func (g *Governor) DetectorStats() PredictorStats {
	if g.sigPred == nil {
		return PredictorStats{}
	}
	return g.sigPred.stats
}

// Decide produces the gating decision for the upcoming interval.
//
// Ownership: the returned Decision (including every Ranking slice) is
// owned by the governor and reused on the next Decide call. Callers
// that need a decision beyond the current interval — or across two
// Decide calls on the same governor — must copy what they keep. The
// epoch loop consumes each decision within its interval, so the reuse
// keeps the steady-state decision path allocation-free.
func (g *Governor) Decide(in *Inputs) (*Decision, error) {
	if in == nil {
		return nil, errors.New("core: nil inputs")
	}
	dec := &g.dec
	for d := range g.chip.Domains {
		dd, err := g.decideDomain(d, in)
		if err != nil {
			return nil, err
		}
		dec.Domains[d] = dd
	}
	// Remember this decision point's sensor snapshot for the trend term.
	if len(in.SensorVRTemps) == len(g.chip.Regulators) {
		copy(g.prevSensor, in.SensorVRTemps)
		g.haveSensor = true
	}
	return dec, nil
}

func (g *Governor) decideDomain(d int, in *Inputs) (DomainDecision, error) {
	dom := &g.chip.Domains[d]
	n := len(dom.Regulators)
	identity := g.identity[d]

	switch g.cfg.Policy {
	case OffChip:
		return DomainDecision{Count: 0, Ranking: identity}, nil
	case AllOn:
		return DomainDecision{Count: n, Ranking: identity}, nil
	}

	demand, err := g.anticipatedDemand(d, in)
	if err != nil {
		return DomainDecision{}, err
	}
	count := g.networks[d].NOn(demand)

	// Every key-driven policy fills rankKeys[i] for local index i and
	// then sorts the domain's ranking buffer by it. Computing the keys
	// into the governor-held buffer up front (exactly once per element,
	// like the old sort's key snapshot) keeps the decision free of both
	// the key closure and the sort's allocations.
	var ranking []int
	keys := g.rankKeys
	switch g.cfg.Policy {
	case Naive:
		if len(in.VRTemps) != len(g.chip.Regulators) {
			return DomainDecision{}, errors.New("core: Naive needs instantaneous VR temperatures")
		}
		for i, rid := range dom.Regulators {
			keys[i] = in.VRTemps[rid]
		}
		ranking = g.rankAscending(d, dom)

	case OracT, OracVT:
		if in.PredictVRTempOn == nil {
			return DomainDecision{}, errors.New("core: oracle policies need PredictVRTempOn")
		}
		loss := g.networks[d].PerVRLoss(demand, count)
		for i, rid := range dom.Regulators {
			keys[i] = in.PredictVRTempOn(rid, loss)
		}
		ranking = g.rankAscending(d, dom)

	case OracV:
		if len(in.FutureBlockCurrent) != len(g.chip.Blocks) {
			return DomainDecision{}, errors.New("core: OracV needs the future block current map")
		}
		crit := g.critBuf[:n]
		if err := g.grid.VRCriticalityInto(d, in.FutureBlockCurrent, crit); err != nil {
			return DomainDecision{}, err
		}
		// Highest criticality first: keep the regulators closest to the
		// voltage-noise-critical load on. crit is indexed by local index
		// already, so the key for local index i is just -crit[i].
		for i := range dom.Regulators {
			keys[i] = -crit[i]
		}
		ranking = g.rankAscending(d, dom)

	case PracT, PracVT:
		if len(g.theta.Theta) == 0 {
			return DomainDecision{}, errors.New("core: PracT needs a trained theta model (SetTheta)")
		}
		if len(in.SensorVRTemps) != len(g.chip.Regulators) {
			return DomainDecision{}, errors.New("core: PracT needs sensor VR temperatures")
		}
		lossIfOn := g.networks[d].PerVRLoss(demand, count)
		for i, rid := range dom.Regulators {
			dP := lossIfOn - g.lastPerVRLoss[rid]
			anticipated := g.theta.Predict(rid, in.SensorVRTemps[rid], dP)
			// Sensor-trend compensation for mid-transient regulators.
			if g.haveSensor && g.cfg.TrendGain > 0 {
				anticipated += g.cfg.TrendGain * (in.SensorVRTemps[rid] - g.prevSensor[rid])
			}
			keys[i] = anticipated
		}
		ranking = g.rankAscending(d, dom)

	case Custom:
		ranking = g.cfg.CustomRank(d, in, demand, count)
		if err := g.validRanking(dom, ranking); err != nil {
			return DomainDecision{}, err
		}

	default:
		return DomainDecision{}, fmt.Errorf("core: unhandled policy %v", g.cfg.Policy)
	}

	dd := DomainDecision{Count: count, Ranking: ranking}

	// Voltage-emergency handling (Section 6.2.4 / 6.3): upon an alert the
	// affected domain turns all regulators on, relaxing the peak-efficiency
	// constraint for this (rare) interval.
	switch g.cfg.Policy {
	case OracVT:
		if in.DomainEmergency == nil {
			return DomainDecision{}, errors.New("core: OracVT needs DomainEmergency")
		}
		if in.DomainEmergency(d, count, ranking) {
			dd.Count = n
			dd.EmergencyOverride = true
		}
	case PracVT:
		alert := false
		if g.sigPred != nil {
			sig := emergencySignature(d, demand, demand > g.lastDemand[d], g.lastEmergency[d])
			alert = g.sigPred.predict(d, sig)
			g.actedLast[d] = alert
		} else {
			if in.DomainEmergency == nil {
				return DomainDecision{}, errors.New("core: PracVT needs DomainEmergency")
			}
			truth := in.DomainEmergency(d, count, ranking)
			if truth {
				alert = g.rng.Float64() < g.cfg.EmergencyAccuracy
			} else {
				alert = g.rng.Float64() < g.cfg.EmergencyFalseRate
			}
		}
		if alert {
			dd.Count = n
			dd.EmergencyOverride = true
		}
	}

	// Fail-safe thermal emergency (robustness, not in the paper): if any of
	// the domain's sensors reads at or beyond the hard limit, force all-on.
	// Spreading the load across every phase minimises per-regulator loss,
	// which is the strongest cooling action the governor has. This uses the
	// (possibly faulty) sensor readings on purpose — it is the last line of
	// defence when the policy above mis-gated because of bad inputs.
	if g.cfg.ThermalEmergencyC > 0 && len(in.SensorVRTemps) == len(g.chip.Regulators) {
		for _, rid := range dom.Regulators {
			if in.SensorVRTemps[rid] >= g.cfg.ThermalEmergencyC {
				dd.Count = n
				dd.ThermalOverride = true
				break
			}
		}
	}
	return dd, nil
}

// anticipatedDemand returns the domain current (amps) the policy sizes
// n_on against.
func (g *Governor) anticipatedDemand(d int, in *Inputs) (float64, error) {
	switch g.cfg.Policy {
	case Naive:
		if len(in.PrevDomainCurrent) != len(g.chip.Domains) {
			return 0, errors.New("core: Naive needs the previous interval's demand")
		}
		return in.PrevDomainCurrent[d], nil
	case OracT, OracV, OracVT:
		if len(in.FutureDomainCurrent) != len(g.chip.Domains) {
			return 0, errors.New("core: oracle policies need the future demand")
		}
		return in.FutureDomainCurrent[d], nil
	case PracT, PracVT, Custom:
		if g.wma[d].Ready() {
			return g.wma[d].Predict(), nil
		}
		if len(in.PrevDomainCurrent) == len(g.chip.Domains) {
			return in.PrevDomainCurrent[d], nil
		}
		return 0, nil
	}
	// Unreachable for configurations that pass Validate; kept as a guard.
	return 0, fmt.Errorf("core: policy %v does not size n_on", g.cfg.Policy)
}

// rankAscending orders domain d's regulators (as local indices) by the
// keys the caller filled into g.rankKeys, lowest first, breaking ties
// by regulator ID for determinism. The (key, ID) pair is a strict total
// order over finite keys — IDs are unique — so any comparison sort
// yields the same unique permutation the previous sort.SliceStable did;
// a stable insertion sort over the governor-held buffer gets it without
// allocating (domains hold a handful of regulators, so O(n²) is cheap).
func (g *Governor) rankAscending(d int, dom *floorplan.Domain) []int {
	keys := g.rankKeys
	out := g.rankBuf[d]
	for i := range out {
		out[i] = i
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			var less bool
			//lint:ignore floatcheck exact comparison is required: an epsilon would break the comparator's strict weak ordering
			if keys[b] != keys[a] {
				less = keys[b] < keys[a]
			} else {
				less = dom.Regulators[b] < dom.Regulators[a]
			}
			if !less {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}

// validRanking checks that a user-supplied ranking is a permutation of the
// domain's regulator local indices.
func (g *Governor) validRanking(dom *floorplan.Domain, ranking []int) error {
	n := len(dom.Regulators)
	if len(ranking) != n {
		return fmt.Errorf("core: custom ranking for domain %s has %d entries, want %d",
			dom.Name, len(ranking), n)
	}
	seen := g.rankSeen[:n]
	for i := range seen {
		seen[i] = false
	}
	for _, idx := range ranking {
		if idx < 0 || idx >= n || seen[idx] {
			return fmt.Errorf("core: custom ranking for domain %s is not a permutation", dom.Name)
		}
		seen[idx] = true
	}
	return nil
}
