package thermal

import (
	"errors"
	"fmt"
	"math"

	"thermogater/internal/floorplan"
	"thermogater/internal/invariant"
)

// GridModel is the fine-grid counterpart of the compact block-mode Model —
// HotSpot's "grid mode". The die and the spreader are rasterised onto an
// nx×ny cell lattice: every cell gets its area share of the power of the
// block under it, regulator losses are injected into the single cell
// containing the regulator, and heat conducts laterally between adjacent
// cells, vertically into the spreader layer, and out through the lumped
// sink. It resolves intra-block temperature structure the compact model
// cannot (regulator hotspots narrower than a block), and the test suite
// uses it to validate the compact model's block temperatures.
type GridModel struct {
	chip *floorplan.Chip
	cfg  Config

	nx, ny int
	cw, ch float64 // cell dimensions, mm

	// Layers: die cells [0, n), spreader cells [n, 2n), sink node 2n.
	n    int
	sink int

	cellBlock []int     // block ID under each die cell
	power     []float64 // W per node
	temp      []float64 // °C per node
	delta     []float64 // scratch buffer for Step

	gLatDie    float64 // lateral conductance between adjacent die cells
	gLatSpread float64
	gVert      float64 // die cell → spreader cell
	gSink      float64 // spreader cell → sink
	ambientG   float64
}

// NewGridModel rasterises the chip onto an nx×ny lattice.
func NewGridModel(chip *floorplan.Chip, cfg Config, nx, ny int) (*GridModel, error) {
	if chip == nil {
		return nil, errors.New("thermal: nil chip")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("thermal: grid %dx%d too small", nx, ny)
	}
	g := &GridModel{
		chip: chip,
		cfg:  cfg,
		nx:   nx, ny: ny,
		cw: chip.WidthMM / float64(nx),
		ch: chip.HeightMM / float64(ny),
	}
	g.n = nx * ny
	g.sink = 2 * g.n
	g.cellBlock = make([]int, g.n)
	g.power = make([]float64, 2*g.n+1)
	g.temp = make([]float64, 2*g.n+1)

	for idx := 0; idx < g.n; idx++ {
		p := g.cellCenter(idx)
		b := chip.BlockAt(p)
		if b == nil {
			b = chip.NearestBlock(p)
		}
		g.cellBlock[idx] = b.ID
	}

	// Conductances from the same physical constants as the compact model.
	// Lateral: k·t·(cross-section)/(distance); for square-ish cells the
	// cross-section is the shared cell edge. Use the geometric mean so
	// x/y conduction is uniform on mildly anisotropic cells.
	gx := cfg.KSiWPerMMK * cfg.DieThicknessMM * g.ch / g.cw
	gy := cfg.KSiWPerMMK * cfg.DieThicknessMM * g.cw / g.ch
	latDie := math.Sqrt(gx * gy)
	gx = cfg.KCuWPerMMK * cfg.SpreaderThicknessMM * g.ch / g.cw
	gy = cfg.KCuWPerMMK * cfg.SpreaderThicknessMM * g.cw / g.ch
	latSpread := math.Sqrt(gx * gy)
	if math.IsNaN(latDie) || math.IsNaN(latSpread) {
		return nil, fmt.Errorf("thermal: grid conductances are NaN (negative conductivity or thickness in config)")
	}
	g.gLatDie, g.gLatSpread = latDie, latSpread

	cellArea := g.cw * g.ch
	g.gVert = cfg.GVertWPerKmm2 * cellArea
	g.gSink = cfg.GSpreaderSinkWPerKmm2 * cellArea
	g.ambientG = 1 / cfg.SinkResKPerW
	if !(g.gVert > 0) || !(g.gSink > 0) || !(g.ambientG > 0) {
		// The steady-state relaxation divides by conductance sums that
		// are only guaranteed positive when these three are.
		return nil, fmt.Errorf("thermal: non-positive grid conductances (gVert=%v gSink=%v ambientG=%v)",
			g.gVert, g.gSink, g.ambientG)
	}

	g.Reset(cfg.AmbientC)
	return g, nil
}

// Size returns the lattice dimensions.
func (g *GridModel) Size() (nx, ny int) { return g.nx, g.ny }

func (g *GridModel) cellCenter(idx int) floorplan.Point {
	ix := idx % g.nx
	iy := idx / g.nx
	return floorplan.Point{
		X: (float64(ix) + 0.5) * g.cw,
		Y: (float64(iy) + 0.5) * g.ch,
	}
}

// Reset sets every node to the given temperature.
func (g *GridModel) Reset(tempC float64) {
	for i := range g.temp {
		g.temp[i] = tempC
	}
}

// Step advances the transient solution by dtS seconds with substepped
// explicit Euler, mirroring the compact model's integrator at grid
// resolution.
func (g *GridModel) Step(dtS float64) error {
	if dtS <= 0 {
		return fmt.Errorf("thermal: non-positive step %v", dtS)
	}
	cellArea := g.cw * g.ch
	cDie := g.cfg.CSiJPerMM3K * cellArea * g.cfg.DieThicknessMM
	cSp := g.cfg.CCuJPerMM3K * cellArea * g.cfg.SpreaderThicknessMM
	if !(cDie > 0) || !(cSp > 0) {
		return fmt.Errorf("thermal: non-positive cell heat capacity (cDie=%v cSp=%v)", cDie, cSp)
	}
	// Stability: the fastest node rate bounds the substep.
	dieRate := (4*g.gLatDie + g.gVert) / cDie
	spRate := (4*g.gLatSpread + g.gVert + g.gSink) / cSp
	maxRate := math.Max(dieRate, spRate)
	sub := math.Min(g.cfg.MaxEulerStepS, 0.5/maxRate)
	if !(maxRate > 0) || !(sub > 0) {
		// maxRate = +Inf (zero capacity) or MaxEulerStepS ≤ 0 would make
		// the substep count meaningless.
		return fmt.Errorf("thermal: degenerate substep %v (maxRate=%v)", sub, maxRate)
	}
	steps := int(math.Ceil(dtS / sub))
	h := dtS / float64(steps)
	if invariant.Enabled {
		invariant.CheckStability("thermal.GridModel substep", h, maxRate)
	}

	if g.delta == nil {
		g.delta = make([]float64, len(g.temp))
	}
	for s := 0; s < steps; s++ {
		// Die layer.
		for idx := 0; idx < g.n; idx++ {
			ix := idx % g.nx
			iy := idx / g.nx
			q := g.power[idx] + g.gVert*(g.temp[g.n+idx]-g.temp[idx])
			if ix > 0 {
				q += g.gLatDie * (g.temp[idx-1] - g.temp[idx])
			}
			if ix < g.nx-1 {
				q += g.gLatDie * (g.temp[idx+1] - g.temp[idx])
			}
			if iy > 0 {
				q += g.gLatDie * (g.temp[idx-g.nx] - g.temp[idx])
			}
			if iy < g.ny-1 {
				q += g.gLatDie * (g.temp[idx+g.nx] - g.temp[idx])
			}
			g.delta[idx] = h * q / cDie
		}
		// Spreader layer.
		for idx := 0; idx < g.n; idx++ {
			sp := g.n + idx
			ix := idx % g.nx
			iy := idx / g.nx
			q := g.gVert*(g.temp[idx]-g.temp[sp]) + g.gSink*(g.temp[g.sink]-g.temp[sp])
			if ix > 0 {
				q += g.gLatSpread * (g.temp[sp-1] - g.temp[sp])
			}
			if ix < g.nx-1 {
				q += g.gLatSpread * (g.temp[sp+1] - g.temp[sp])
			}
			if iy > 0 {
				q += g.gLatSpread * (g.temp[sp-g.nx] - g.temp[sp])
			}
			if iy < g.ny-1 {
				q += g.gLatSpread * (g.temp[sp+g.nx] - g.temp[sp])
			}
			g.delta[sp] = h * q / cSp
		}
		// Sink node: a whole-lattice reduction in spreader index order.
		{
			q := g.ambientG * (g.cfg.AmbientC - g.temp[g.sink])
			for idx := 0; idx < g.n; idx++ {
				q += g.gSink * (g.temp[g.n+idx] - g.temp[g.sink])
			}
			g.delta[g.sink] = h * q / g.cfg.SinkCapJPerK
		}
		for i := range g.temp {
			g.temp[i] += g.delta[i]
		}
	}
	if invariant.Enabled {
		invariant.CheckTempBounds("thermal.GridModel.temp", g.temp, g.cfg.AmbientC, math.Inf(1))
	}
	return nil
}

// SetPower distributes the block power map over the die cells (area
// shares) and injects each regulator's loss into the cell containing it.
func (g *GridModel) SetPower(blockPower, vrPower []float64) error {
	if err := validatePowers(blockPower, vrPower, len(g.chip.Blocks), len(g.chip.Regulators)); err != nil {
		return err
	}
	// Count cells per block for even distribution.
	cells := make([]int, len(g.chip.Blocks))
	for _, bid := range g.cellBlock {
		cells[bid]++
	}
	for i := range g.power {
		g.power[i] = 0
	}
	for idx, bid := range g.cellBlock {
		if cells[bid] > 0 {
			g.power[idx] = blockPower[bid] / float64(cells[bid])
		}
	}
	for ri, reg := range g.chip.Regulators {
		ix := int(reg.Pos.X / g.cw)
		iy := int(reg.Pos.Y / g.ch)
		if ix < 0 {
			ix = 0
		}
		if ix >= g.nx {
			ix = g.nx - 1
		}
		if iy < 0 {
			iy = 0
		}
		if iy >= g.ny {
			iy = g.ny - 1
		}
		g.power[iy*g.nx+ix] += vrPower[ri]
	}
	return nil
}

// SteadyState relaxes the lattice to equilibrium with Gauss-Seidel,
// returning the iteration count.
func (g *GridModel) SteadyState(tolC float64, maxIter int) (int, error) {
	if tolC <= 0 {
		return 0, errors.New("thermal: non-positive tolerance")
	}
	if maxIter <= 0 {
		maxIter = 50000
	}
	for it := 1; it <= maxIter; it++ {
		var maxDelta float64
		// Die layer.
		for idx := 0; idx < g.n; idx++ {
			ix := idx % g.nx
			iy := idx / g.nx
			num := g.power[idx] + g.gVert*g.temp[g.n+idx]
			den := g.gVert
			if ix > 0 {
				num += g.gLatDie * g.temp[idx-1]
				den += g.gLatDie
			}
			if ix < g.nx-1 {
				num += g.gLatDie * g.temp[idx+1]
				den += g.gLatDie
			}
			if iy > 0 {
				num += g.gLatDie * g.temp[idx-g.nx]
				den += g.gLatDie
			}
			if iy < g.ny-1 {
				num += g.gLatDie * g.temp[idx+g.nx]
				den += g.gLatDie
			}
			tNew := num / den
			if d := math.Abs(tNew - g.temp[idx]); d > maxDelta {
				maxDelta = d
			}
			//lint:ignore nanflow den >= gVert+gSink > 0, validated in NewGrid
			g.temp[idx] = tNew
		}
		// Spreader layer.
		for idx := 0; idx < g.n; idx++ {
			s := g.n + idx
			ix := idx % g.nx
			iy := idx / g.nx
			num := g.gVert*g.temp[idx] + g.gSink*g.temp[g.sink]
			den := g.gVert + g.gSink
			if ix > 0 {
				num += g.gLatSpread * g.temp[s-1]
				den += g.gLatSpread
			}
			if ix < g.nx-1 {
				num += g.gLatSpread * g.temp[s+1]
				den += g.gLatSpread
			}
			if iy > 0 {
				num += g.gLatSpread * g.temp[s-g.nx]
				den += g.gLatSpread
			}
			if iy < g.ny-1 {
				num += g.gLatSpread * g.temp[s+g.nx]
				den += g.gLatSpread
			}
			tNew := num / den
			if d := math.Abs(tNew - g.temp[s]); d > maxDelta {
				maxDelta = d
			}
			//lint:ignore nanflow den >= gVert+gSink > 0, validated in NewGrid
			g.temp[s] = tNew
		}
		// Sink node.
		{
			num := g.ambientG * g.cfg.AmbientC
			den := g.ambientG
			for idx := 0; idx < g.n; idx++ {
				num += g.gSink * g.temp[g.n+idx]
				den += g.gSink
			}
			tNew := num / den
			if d := math.Abs(tNew - g.temp[g.sink]); d > maxDelta {
				maxDelta = d
			}
			//lint:ignore nanflow den >= ambientG > 0, validated in NewGrid
			g.temp[g.sink] = tNew
		}
		if maxDelta < tolC {
			if invariant.Enabled {
				invariant.CheckTempBounds("thermal.GridModel.temp", g.temp, g.cfg.AmbientC, math.Inf(1))
			}
			return it, nil
		}
	}
	return maxIter, errors.New("thermal: grid steady state did not converge")
}

// CellTemp returns the die temperature of cell (ix, iy).
func (g *GridModel) CellTemp(ix, iy int) float64 {
	return g.temp[iy*g.nx+ix]
}

// SinkTemp returns the sink node temperature.
func (g *GridModel) SinkTemp() float64 { return g.temp[g.sink] }

// MaxTemp returns the hottest die cell and its position.
func (g *GridModel) MaxTemp() (float64, floorplan.Point) {
	best, at := math.Inf(-1), 0
	for idx := 0; idx < g.n; idx++ {
		if g.temp[idx] > best {
			best, at = g.temp[idx], idx
		}
	}
	return best, g.cellCenter(at)
}

// BlockTemp returns the area-average die temperature of a block.
func (g *GridModel) BlockTemp(block int) float64 {
	var sum float64
	var n int
	for idx, bid := range g.cellBlock {
		if bid == block {
			sum += g.temp[idx]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// HeatMap returns a copy of the die layer as rows of cells.
func (g *GridModel) HeatMap() [][]float64 {
	out := make([][]float64, g.ny)
	for iy := 0; iy < g.ny; iy++ {
		row := make([]float64, g.nx)
		copy(row, g.temp[iy*g.nx:(iy+1)*g.nx])
		out[iy] = row
	}
	return out
}
