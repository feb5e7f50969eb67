package thermal

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"

	"thermogater/internal/floorplan"
	"thermogater/internal/invariant"
)

// edge is one conductive link of the RC network.
type edge struct {
	to int
	g  float64 // W/K
}

// Model is the compact RC thermal network for one chip.
type Model struct {
	chip *floorplan.Chip
	cfg  Config

	nBlocks int
	nVRs    int
	// Node layout: [0, nBlocks) block die nodes, [nBlocks, nBlocks+nVRs)
	// regulator nodes, then one spreader node per block, then the sink.
	nNodes  int
	sink    int
	spread0 int
	vrNames []string // "vr<r>@<nearest block>", prebuilt so MaxTemp never formats

	capJPerK []float64
	ambientG []float64 // conductance to fixed ambient (sink only)
	power    []float64 // W injected per node
	temp     []float64 // °C

	sumG    []float64 // cached Σg per node (incl. ambient), for stability + steady state
	maxRate float64   // max over nodes of ΣG/C, 1/s
	delta   []float64 // scratch buffer for Step

	// The network in CSR form, built once by cacheRates: the neighbours
	// of node i are flatTo[rowStart[i]:rowStart[i+1]] with conductances
	// flatG at the same offsets, in the order NewModel linked them — the
	// order the nested per-node edge slices had, so the sweeps sum
	// exactly as the nested loops did and every bit is kept.
	rowStart []int32
	flatTo   []int32
	flatG    []float64

	// netKey is the SHA-256 of the network part of the steady-state memo
	// key (steadymemo.go), hashed on the first SteadyState call; netHashed
	// says whether it has been.
	netKey    [sha256.Size]byte
	netHashed bool

	substeps int64 // cumulative internal Euler substeps across all Step calls
}

// NewModel builds the RC network for the chip, initialised to the ambient
// temperature with zero power.
func NewModel(chip *floorplan.Chip, cfg Config) (*Model, error) {
	if chip == nil {
		return nil, errors.New("thermal: nil chip")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		chip:    chip,
		cfg:     cfg,
		nBlocks: len(chip.Blocks),
		nVRs:    len(chip.Regulators),
	}
	m.spread0 = m.nBlocks + m.nVRs
	m.sink = m.spread0 + m.nBlocks
	m.nNodes = m.sink + 1
	m.vrNames = make([]string, m.nVRs)
	for r := 0; r < m.nVRs; r++ {
		m.vrNames[r] = fmt.Sprintf("vr%d@%s", r, chip.Blocks[chip.Regulators[r].NearestBlock].Name)
	}

	adj := make([][]edge, m.nNodes)
	link := func(i, j int, g float64) {
		adj[i] = append(adj[i], edge{to: j, g: g})
		adj[j] = append(adj[j], edge{to: i, g: g})
	}
	m.capJPerK = make([]float64, m.nNodes)
	m.ambientG = make([]float64, m.nNodes)
	m.power = make([]float64, m.nNodes)
	m.temp = make([]float64, m.nNodes)

	// Node capacitances.
	for i, b := range chip.Blocks {
		m.capJPerK[i] = cfg.CSiJPerMM3K * b.R.Area() * cfg.DieThicknessMM
		m.capJPerK[m.spread0+i] = cfg.CCuJPerMM3K * b.R.Area() * cfg.SpreaderThicknessMM
	}
	for r := range chip.Regulators {
		m.capJPerK[m.nBlocks+r] = cfg.RegulatorCapJPerK
	}
	m.capJPerK[m.sink] = cfg.SinkCapJPerK

	// Lateral silicon conduction between adjacent blocks.
	for i := 0; i < m.nBlocks; i++ {
		for j := i + 1; j < m.nBlocks; j++ {
			bi, bj := chip.Blocks[i].R, chip.Blocks[j].R
			shared := bi.SharedEdge(bj)
			if shared <= 0 {
				continue
			}
			dist := bi.Center().DistanceTo(bj.Center())
			if !(dist > 0) {
				return nil, fmt.Errorf("thermal: blocks %d and %d have coincident centers", i, j)
			}
			g := cfg.KSiWPerMMK * cfg.DieThicknessMM * shared / dist
			link(i, j, g)
		}
	}
	// Vertical block→spreader, spreader→sink.
	for i, b := range chip.Blocks {
		link(i, m.spread0+i, cfg.GVertWPerKmm2*b.R.Area())
		link(m.spread0+i, m.sink, cfg.GSpreaderSinkWPerKmm2*b.R.Area())
	}
	// Lateral copper spreading between adjacent spreader nodes.
	for i := 0; i < m.nBlocks; i++ {
		for j := i + 1; j < m.nBlocks; j++ {
			bi, bj := chip.Blocks[i].R, chip.Blocks[j].R
			shared := bi.SharedEdge(bj)
			if shared <= 0 {
				continue
			}
			dist := bi.Center().DistanceTo(bj.Center())
			if !(dist > 0) {
				return nil, fmt.Errorf("thermal: blocks %d and %d have coincident centers", i, j)
			}
			g := cfg.KCuWPerMMK * cfg.SpreaderThicknessMM * shared / dist
			link(m.spread0+i, m.spread0+j, g)
		}
	}
	// Regulator nodes couple to their host block.
	for r, reg := range chip.Regulators {
		host := reg.NearestBlock
		if host < 0 {
			return nil, fmt.Errorf("thermal: regulator %d has no host block", r)
		}
		link(m.nBlocks+r, host, cfg.GRegulatorWPerK)
	}
	// Sink to ambient.
	m.ambientG[m.sink] = 1 / cfg.SinkResKPerW

	m.cacheRates(adj)
	m.Reset(cfg.AmbientC)
	return m, nil
}

// cacheRates precomputes everything the sweeps need that does not change
// between substeps, hotspot3D-style: the per-node conductance sums and
// stability rate, and the CSR (flat structure-of-arrays) form of NewModel's
// adjacency, which is the model's only copy of its network, so stepCapped
// and SteadyState touch three dense arrays instead of chasing per-node
// edge slices.
func (m *Model) cacheRates(adj [][]edge) {
	m.sumG = make([]float64, m.nNodes)
	m.maxRate = 0
	nEdges := 0
	for i := range adj {
		var s float64
		for _, e := range adj[i] {
			s += e.g
		}
		s += m.ambientG[i]
		m.sumG[i] = s
		if r := s / m.capJPerK[i]; r > m.maxRate {
			m.maxRate = r
		}
		nEdges += len(adj[i])
	}
	m.rowStart = make([]int32, m.nNodes+1)
	m.flatTo = make([]int32, nEdges)
	m.flatG = make([]float64, nEdges)
	k := 0
	for i := range adj {
		m.rowStart[i] = int32(k)
		for _, e := range adj[i] {
			m.flatTo[k] = int32(e.to)
			m.flatG[k] = e.g
			k++
		}
	}
	m.rowStart[m.nNodes] = int32(k)
}

// Chip returns the floorplan the model was built from.
func (m *Model) Chip() *floorplan.Chip { return m.chip }

// Config returns the package configuration.
func (m *Model) Config() Config { return m.cfg }

// Reset sets every node to the given temperature.
func (m *Model) Reset(tempC float64) {
	for i := range m.temp {
		m.temp[i] = tempC
	}
}

// SetPower installs the heat inputs for the next integration interval:
// blockPower holds total (dynamic + static) watts per functional block,
// vrPower the conversion loss of each regulator (zero for gated ones).
// It runs validatePowers' checks, with the same errors, inside the copy,
// so the vectors are read once per substep. A rejected map may be partly
// installed; every caller fails its run on the error.
func (m *Model) SetPower(blockPower, vrPower []float64) error {
	if len(blockPower) != m.nBlocks {
		return fmt.Errorf("thermal: %d block powers, chip has %d blocks", len(blockPower), m.nBlocks)
	}
	if len(vrPower) != m.nVRs {
		return fmt.Errorf("thermal: %d regulator powers, chip has %d regulators", len(vrPower), m.nVRs)
	}
	bp := m.power[:len(blockPower)]
	for i, p := range blockPower {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("thermal: block %d power %v invalid", i, p)
		}
		bp[i] = p
	}
	vp := m.power[m.nBlocks : m.nBlocks+len(vrPower)]
	for r, p := range vrPower {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("thermal: regulator %d power %v invalid", r, p)
		}
		vp[r] = p
	}
	return nil
}

// Step advances the transient solution by dtS seconds using explicit Euler
// with internal substepping chosen for stability.
func (m *Model) Step(dtS float64) error {
	if err := m.stepCapped(dtS, m.cfg.MaxEulerStepS); err != nil {
		return err
	}
	if invariant.Enabled {
		invariant.CheckTempBounds("thermal.Model.temp", m.temp, m.cfg.AmbientC, math.Inf(1))
	}
	return nil
}

// stepCapped is Step with an explicit substep cap and without the post-step
// invariant sweep, so the watchdog can retry a diverged attempt at a reduced
// cap before the sanitizer sees (and panics on) the transient garbage.
func (m *Model) stepCapped(dtS, capS float64) error {
	if dtS <= 0 {
		return fmt.Errorf("thermal: non-positive step %v", dtS)
	}
	if !(capS > 0) {
		return fmt.Errorf("thermal: non-positive substep cap %v", capS)
	}
	// Stability: substep ≤ min(cap, 0.5/maxRate).
	sub := math.Min(capS, 0.5/m.maxRate)
	if !(sub > 0) {
		// maxRate = +Inf (a zero heat capacity slipped through) would
		// zero the substep and overflow the step count.
		return fmt.Errorf("thermal: degenerate substep %v (maxRate=%v)", sub, m.maxRate)
	}
	steps := int(math.Ceil(dtS / sub))
	h := dtS / float64(steps)
	m.substeps += int64(steps)
	if invariant.Enabled {
		invariant.CheckStability("thermal.Model substep", h, m.maxRate)
	}
	if m.delta == nil {
		m.delta = make([]float64, m.nNodes)
	}
	// Flat SoA sweep over the CSR arrays built by cacheRates. The
	// in-place temperature update runs after the full delta pass, so every
	// row reads the field as it stood at the start of the substep. The
	// arrays are resliced to one length up front so the compiler drops
	// the per-node bounds checks; the arithmetic and summation order are
	// exactly those of the nested adj loop, so every bit is kept.
	n := m.nNodes
	temp := m.temp[:n]
	pw := m.power[:n]
	capJ := m.capJPerK[:n]
	amb := m.ambientG[:n]
	delta := m.delta[:n]
	rowStart := m.rowStart[:n+1]
	flatTo, flatG := m.flatTo, m.flatG[:len(m.flatTo)]
	ambC := m.cfg.AmbientC
	for s := 0; s < steps; s++ {
		for i := range delta {
			q := pw[i]
			ti := temp[i]
			for k := rowStart[i]; k < rowStart[i+1]; k++ {
				q += flatG[k] * (temp[flatTo[k]] - ti)
			}
			if g := amb[i]; g > 0 {
				q += g * (ambC - ti)
			}
			delta[i] = h * q / capJ[i]
		}
		for i, d := range delta {
			temp[i] += d
		}
	}
	return nil
}

// State is a deep snapshot of the model's mutable fields; see
// Model.State/Restore and the checkpoint format in docs/ROBUSTNESS.md.
type State struct {
	Temp     []float64
	Power    []float64
	Substeps int64
}

// State captures the temperature field, installed power map and the
// cumulative substep counter. The returned value shares nothing with the
// model.
func (m *Model) State() *State {
	return &State{
		Temp:     append([]float64(nil), m.temp...),
		Power:    append([]float64(nil), m.power...),
		Substeps: m.substeps,
	}
}

// Restore loads a snapshot previously taken by State. The model must have
// been built for the same chip; shape mismatches are rejected.
func (m *Model) Restore(s *State) error {
	if s == nil {
		return errors.New("thermal: nil state")
	}
	if len(s.Temp) != m.nNodes || len(s.Power) != m.nNodes {
		return fmt.Errorf("thermal: state sized for %d nodes, model has %d", len(s.Temp), m.nNodes)
	}
	if s.Substeps < 0 {
		return errors.New("thermal: negative substep counter")
	}
	for i, t := range s.Temp {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("thermal: state temperature %d = %v not finite", i, t)
		}
	}
	copy(m.temp, s.Temp)
	copy(m.power, s.Power)
	m.substeps = s.Substeps
	return nil
}

// SteadyState relaxes the network to its equilibrium for the currently
// installed power map, using Gauss-Seidel iteration from the current field
// to the given absolute tolerance (°C). It returns the iteration count used.
// A converged solve is remembered process-wide (steadymemo.go): a later call
// on any Model with the same network, power map, starting field, tolerance
// and iteration budget copies the stored field and count instead of
// iterating, which gives the same bits as solving again.
func (m *Model) SteadyState(tolC float64, maxIter int) (int, error) {
	if tolC <= 0 {
		return 0, errors.New("thermal: non-positive tolerance")
	}
	if maxIter <= 0 {
		maxIter = 20000
	}
	key := m.steadyKey(tolC, maxIter)
	it, ok := steadyMemo.lookup(key, m.temp)
	if !ok {
		var err error
		if it, err = m.gaussSeidel(tolC, maxIter); err != nil {
			return it, err
		}
		steadyMemo.store(key, m.temp, it)
	}
	if invariant.Enabled {
		invariant.CheckTempBounds("thermal.Model.temp", m.temp, m.cfg.AmbientC, math.Inf(1))
	}
	return it, nil
}

// gaussSeidel is SteadyState's solve: in-place sweeps over the CSR arrays,
// each node taking its neighbours' newest values, until no node moves by
// tolC or more. The edge order is NewModel's link order, so the sums are
// those of the nested per-node loop this replaced, bit for bit.
func (m *Model) gaussSeidel(tolC float64, maxIter int) (int, error) {
	n := m.nNodes
	temp := m.temp[:n]
	pw := m.power[:n]
	amb := m.ambientG[:n]
	sumG := m.sumG[:n]
	rowStart := m.rowStart[:n+1]
	flatTo, flatG := m.flatTo, m.flatG[:len(m.flatTo)]
	ambC := m.cfg.AmbientC
	for it := 1; it <= maxIter; it++ {
		var maxDelta float64
		for i := range temp {
			num := pw[i] + amb[i]*ambC
			for k := rowStart[i]; k < rowStart[i+1]; k++ {
				num += flatG[k] * temp[flatTo[k]]
			}
			tNew := num / sumG[i]
			if d := math.Abs(tNew - temp[i]); d > maxDelta {
				maxDelta = d
			}
			temp[i] = tNew
		}
		if maxDelta < tolC {
			return it, nil
		}
	}
	return maxIter, errors.New("thermal: steady state did not converge")
}

// Substeps returns the cumulative number of internal Euler substeps taken
// by Step since construction — the solver-cost counter telemetry reports
// per epoch.
func (m *Model) Substeps() int64 { return m.substeps }

// BlockTemp returns the die temperature of the given block.
func (m *Model) BlockTemp(block int) float64 { return m.temp[block] }

// VRTemp returns the temperature of the given regulator node.
func (m *Model) VRTemp(vr int) float64 { return m.temp[m.nBlocks+vr] }

// BlockTemps copies all block temperatures into dst (allocated if nil).
func (m *Model) BlockTemps(dst []float64) []float64 {
	if dst == nil || len(dst) != m.nBlocks {
		dst = make([]float64, m.nBlocks)
	}
	copy(dst, m.temp[:m.nBlocks])
	return dst
}

// VRTemps copies all regulator temperatures into dst (allocated if nil).
func (m *Model) VRTemps(dst []float64) []float64 {
	if dst == nil || len(dst) != m.nVRs {
		dst = make([]float64, m.nVRs)
	}
	copy(dst, m.temp[m.nBlocks:m.nBlocks+m.nVRs])
	return dst
}

// SinkTemp returns the heat-sink node temperature.
func (m *Model) SinkTemp() float64 { return m.temp[m.sink] }

// Extremes scans the on-die nodes (blocks, then regulators) once and
// returns the hottest temperature with a description of where it occurs,
// and the maximum spatial temperature difference across the die — the
// metric Fig. 10 reports. The hottest node is the first strict maximum in
// node order, so a block wins a tie with a regulator; NaN nodes never
// compare and are skipped.
func (m *Model) Extremes() (maxC float64, where string, gradientC float64) {
	lo, hi, at := math.Inf(1), math.Inf(-1), -1
	for i, t := range m.temp[:m.nBlocks+m.nVRs] {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi, at = t, i
		}
	}
	switch {
	case at < 0:
	case at < m.nBlocks:
		where = m.chip.Blocks[at].Name
	default:
		where = m.vrNames[at-m.nBlocks]
	}
	return hi, where, hi - lo
}

// HeatMap rasterises the die temperature field onto an nx×ny grid for the
// Fig. 12 heat-map frames: each cell takes the temperature of the block
// under its centre, and cells containing a regulator take the regulator
// node temperature when hotter.
func (m *Model) HeatMap(nx, ny int) ([][]float64, error) {
	if nx < 1 || ny < 1 {
		return nil, errors.New("thermal: heat map needs positive dimensions")
	}
	grid := make([][]float64, ny)
	cw := m.chip.WidthMM / float64(nx)
	ch := m.chip.HeightMM / float64(ny)
	for y := 0; y < ny; y++ {
		grid[y] = make([]float64, nx)
		for x := 0; x < nx; x++ {
			p := floorplan.Point{X: (float64(x) + 0.5) * cw, Y: (float64(y) + 0.5) * ch}
			b := m.chip.BlockAt(p)
			if b == nil {
				b = m.chip.NearestBlock(p)
			}
			grid[y][x] = m.temp[b.ID]
		}
	}
	for r, reg := range m.chip.Regulators {
		x := int(reg.Pos.X / cw)
		y := int(reg.Pos.Y / ch)
		if x >= 0 && x < nx && y >= 0 && y < ny {
			if t := m.temp[m.nBlocks+r]; t > grid[y][x] {
				grid[y][x] = t
			}
		}
	}
	return grid, nil
}
