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
// sink. It is a steady-state validator: the differential tests compare
// the compact model's block and regulator temperatures against it, and
// nothing in the control loop calls it.
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

	for i := range g.temp {
		g.temp[i] = cfg.AmbientC
	}
	return g, nil
}

func (g *GridModel) cellCenter(idx int) floorplan.Point {
	ix := idx % g.nx
	iy := idx / g.nx
	return floorplan.Point{
		X: (float64(ix) + 0.5) * g.cw,
		Y: (float64(iy) + 0.5) * g.ch,
	}
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
	for ri := range g.chip.Regulators {
		g.power[g.vrCell(ri)] += vrPower[ri]
	}
	return nil
}

// vrCell is the index of the die cell containing regulator r: the cell
// SetPower injects its loss into and VRTemp reads.
func (g *GridModel) vrCell(r int) int {
	pos := g.chip.Regulators[r].Pos
	ix := min(max(int(pos.X/g.cw), 0), g.nx-1)
	iy := min(max(int(pos.Y/g.ch), 0), g.ny-1)
	return iy*g.nx + ix
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
			//lint:ignore nanflow den >= gVert+gSink > 0, validated in NewGridModel
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
			//lint:ignore nanflow den >= gVert+gSink > 0, validated in NewGridModel
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
			//lint:ignore nanflow den >= ambientG > 0, validated in NewGridModel
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

// VRTemp returns the die temperature of the cell containing regulator r.
func (g *GridModel) VRTemp(r int) float64 { return g.temp[g.vrCell(r)] }

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
