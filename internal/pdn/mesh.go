package pdn

import (
	"errors"
	"fmt"
	"math"

	"thermogater/internal/floorplan"
)

// MeshConfig parameterises the high-fidelity nodal grid solver. The fast
// path-resistance model used inside the control loop approximates each
// block↔regulator path with a lumped resistance; the mesh solver instead
// builds the domain's local power grid as a true resistive mesh and solves
// the nodal equations directly, the way the extended VoltSpot of the paper
// does. It is a validator: the differential tests and the ablation
// benchmark compare the fast model against it, and nothing in the control
// loop calls it.
type MeshConfig struct {
	// PitchMM is the grid node spacing.
	PitchMM float64
	// SheetOhm is the grid sheet resistance per square: the resistance of
	// one pitch-length segment of the mesh.
	SheetOhm float64
	// R0Ohm is the regulator output/via resistance tying an active
	// regulator's node to the ideal supply.
	R0Ohm float64
	// VddV is the nominal supply.
	VddV float64
}

// DefaultMeshConfig is calibrated against the path model on the core
// domains: with the default pitch, the effective mesh resistance between
// a load and a regulator tracks R0 + ρ·distance within the bounds
// TestMeshValidatesPathModel commits. On the wide L3 banks the mesh reads
// three to six times the path model's worst drop (see EXPERIMENTS.md).
func DefaultMeshConfig() MeshConfig {
	return MeshConfig{
		PitchMM:  0.25,
		SheetOhm: 0.008,
		R0Ohm:    0.028,
		VddV:     1.03,
	}
}

// Validate rejects non-physical mesh configurations.
func (c MeshConfig) Validate() error {
	if c.PitchMM <= 0 || c.SheetOhm <= 0 || c.R0Ohm <= 0 || c.VddV <= 0 {
		return errors.New("pdn: mesh dimensions and resistances must be positive")
	}
	return nil
}

// Mesh is the nodal grid model of one Vdd-domain's local power grid.
type Mesh struct {
	chip   *floorplan.Chip
	domain int
	cfg    MeshConfig

	nx, ny int
	x0, y0 float64

	// nodeBlock[i] is the domain-block index under node i (-1 if none);
	// blockNodes[bi] lists the node indices covering block bi.
	nodeBlock  []int
	blockNodes [][]int
	// vrNode[ri] is the node index nearest the ri-th regulator.
	vrNode []int
}

// NewMesh builds the grid for one domain.
func NewMesh(chip *floorplan.Chip, domain int, cfg MeshConfig) (*Mesh, error) {
	if chip == nil {
		return nil, errors.New("pdn: nil chip")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if domain < 0 || domain >= len(chip.Domains) {
		return nil, fmt.Errorf("pdn: domain %d out of range", domain)
	}
	d := &chip.Domains[domain]
	m := &Mesh{chip: chip, domain: domain, cfg: cfg}
	m.x0, m.y0 = d.Bounds.X, d.Bounds.Y
	m.nx = int(math.Ceil(d.Bounds.W/cfg.PitchMM)) + 1
	m.ny = int(math.Ceil(d.Bounds.H/cfg.PitchMM)) + 1
	if m.nx < 2 || m.ny < 2 {
		return nil, fmt.Errorf("pdn: domain %s too small for pitch %v", d.Name, cfg.PitchMM)
	}

	n := m.nx * m.ny
	m.nodeBlock = make([]int, n)
	m.blockNodes = make([][]int, len(d.Blocks))
	for i := range m.nodeBlock {
		m.nodeBlock[i] = -1
	}
	for idx := 0; idx < n; idx++ {
		p := m.nodePos(idx)
		for bi, bid := range d.Blocks {
			if chip.Blocks[bid].R.Contains(p) {
				m.nodeBlock[idx] = bi
				m.blockNodes[bi] = append(m.blockNodes[bi], idx)
				break
			}
		}
	}
	for bi, nodes := range m.blockNodes {
		if len(nodes) == 0 {
			// Tiny blocks might fall between grid nodes; anchor them to
			// the nearest node.
			bid := d.Blocks[bi]
			c := chip.Blocks[bid].R.Center()
			m.blockNodes[bi] = []int{m.nearestNode(c)}
		}
	}
	m.vrNode = make([]int, len(d.Regulators))
	for ri, rid := range d.Regulators {
		m.vrNode[ri] = m.nearestNode(chip.Regulators[rid].Pos)
	}
	return m, nil
}

// Size returns the grid dimensions.
func (m *Mesh) Size() (nx, ny int) { return m.nx, m.ny }

func (m *Mesh) nodePos(idx int) floorplan.Point {
	ix := idx % m.nx
	iy := idx / m.nx
	return floorplan.Point{
		X: m.x0 + float64(ix)*m.cfg.PitchMM,
		Y: m.y0 + float64(iy)*m.cfg.PitchMM,
	}
}

func (m *Mesh) nearestNode(p floorplan.Point) int {
	ix := int(math.Round((p.X - m.x0) / m.cfg.PitchMM))
	iy := int(math.Round((p.Y - m.y0) / m.cfg.PitchMM))
	if ix < 0 {
		ix = 0
	}
	if ix >= m.nx {
		ix = m.nx - 1
	}
	if iy < 0 {
		iy = 0
	}
	if iy >= m.ny {
		iy = m.ny - 1
	}
	return iy*m.nx + ix
}

// MeshSolution is the solved voltage-drop field of one domain.
type MeshSolution struct {
	// DropV is the per-node voltage drop below nominal.
	DropV []float64
	// MaxPct is the worst per-load-node drop in percent of nominal Vdd.
	MaxPct float64
	// PerBlockPct is the worst drop under each domain block (indexed like
	// Domain.Blocks).
	PerBlockPct []float64
	// SupplyA is the total current delivered by the active regulators
	// (equals the total load current at convergence — Kirchhoff).
	SupplyA float64
}

// prepare validates the inputs and assembles the per-node load vector
// and per-node source conductances of the nodal system A·v = load.
func (m *Mesh) prepare(blockCurrent []float64, active []bool) (load, srcG []float64, err error) {
	d := &m.chip.Domains[m.domain]
	if len(blockCurrent) != len(m.chip.Blocks) {
		return nil, nil, fmt.Errorf("pdn: %d block currents, chip has %d blocks",
			len(blockCurrent), len(m.chip.Blocks))
	}
	if len(active) != len(d.Regulators) {
		return nil, nil, fmt.Errorf("pdn: mask size %d, domain has %d regulators",
			len(active), len(d.Regulators))
	}
	anyActive := false
	for _, a := range active {
		anyActive = anyActive || a
	}
	if !anyActive {
		return nil, nil, fmt.Errorf("pdn: domain %s has no active regulator", d.Name)
	}

	n := m.nx * m.ny
	// Load current per node (positive = drawn from the grid).
	load = make([]float64, n)
	for bi, bid := range d.Blocks {
		i := blockCurrent[bid]
		if i <= 0 {
			continue
		}
		share := i / float64(len(m.blockNodes[bi]))
		for _, idx := range m.blockNodes[bi] {
			load[idx] += share
		}
	}
	// Source conductance per node (active regulators).
	srcG = make([]float64, n)
	g0 := 1 / m.cfg.R0Ohm
	for ri, a := range active {
		if a {
			srcG[m.vrNode[ri]] += g0
		}
	}
	return load, srcG, nil
}

// finish derives the per-block profile and supply current from the
// solved drop field v, which the solution takes ownership of.
func (m *Mesh) finish(sol *MeshSolution, v []float64, active []bool) {
	d := &m.chip.Domains[m.domain]
	g0 := 1 / m.cfg.R0Ohm
	sol.DropV = v
	sol.PerBlockPct = make([]float64, len(d.Blocks))
	for bi := range d.Blocks {
		var worst float64
		for _, idx := range m.blockNodes[bi] {
			if v[idx] > worst {
				worst = v[idx]
			}
		}
		sol.PerBlockPct[bi] = 100 * worst / m.cfg.VddV
		if sol.PerBlockPct[bi] > sol.MaxPct {
			sol.MaxPct = sol.PerBlockPct[bi]
		}
	}
	for ri, a := range active {
		if a {
			sol.SupplyA += v[m.vrNode[ri]] * g0
		}
	}
}

// Solve computes the steady IR-drop field for the given per-block currents
// (amps, by global block ID) and the domain's active-regulator mask. Each
// block's current is drawn uniformly by the grid nodes under the block;
// each active regulator injects through its R0 at its grid node.
//
// Solve is direct: it factors the banded nodal matrix and substitutes
// the load vector on every call.
func (m *Mesh) Solve(blockCurrent []float64, active []bool) (*MeshSolution, error) {
	load, srcG, err := m.prepare(blockCurrent, active)
	if err != nil {
		return nil, err
	}
	f, err := m.factorize(srcG, 1/m.cfg.SheetOhm)
	if err != nil {
		return nil, err
	}
	// The substitution solves A·v = load in place: load becomes the drop
	// field.
	f.solve(load, m.nx)
	sol := &MeshSolution{}
	m.finish(sol, load, active)
	return sol, nil
}
