package floorplan

import "fmt"

// Grid is a uniform 2-D rasterization target. Cell (ix, iy) covers the area
// [ix·dx, (ix+1)·dx) × [iy·dy, (iy+1)·dy) offset by (OriginX, OriginY).
type Grid struct {
	NX, NY           int
	DX, DY           float64
	OriginX, OriginY float64
}

// NewGrid returns a grid of nx×ny cells covering width×height from (0,0).
func NewGrid(nx, ny int, width, height float64) Grid {
	return Grid{NX: nx, NY: ny, DX: width / float64(nx), DY: height / float64(ny)}
}

// Cells returns the total cell count.
func (g Grid) Cells() int { return g.NX * g.NY }

// Index linearizes (ix, iy) in row-major order (iy outer).
func (g Grid) Index(ix, iy int) int { return iy*g.NX + ix }

// CellRect returns the rectangle of cell (ix, iy).
func (g Grid) CellRect(ix, iy int) Rect {
	return Rect{
		X: g.OriginX + float64(ix)*g.DX,
		Y: g.OriginY + float64(iy)*g.DY,
		W: g.DX,
		H: g.DY,
	}
}

// CellCenter returns the centroid of cell (ix, iy).
func (g Grid) CellCenter(ix, iy int) (x, y float64) {
	return g.OriginX + (float64(ix)+0.5)*g.DX, g.OriginY + (float64(iy)+0.5)*g.DY
}

// CellAt returns the cell containing the point (x, y), clamped to the grid.
func (g Grid) CellAt(x, y float64) (ix, iy int) {
	ix = int((x - g.OriginX) / g.DX)
	iy = int((y - g.OriginY) / g.DY)
	if ix < 0 {
		ix = 0
	}
	if ix >= g.NX {
		ix = g.NX - 1
	}
	if iy < 0 {
		iy = 0
	}
	if iy >= g.NY {
		iy = g.NY - 1
	}
	return ix, iy
}

// CoverageMap holds, for each block, the fraction of the block's area
// falling in each grid cell. It lets callers turn per-block power into
// per-cell power without re-rasterizing geometry every step.
type CoverageMap struct {
	Grid   Grid
	blocks []string
	// frac[b][cell] = (area of block b ∩ cell) / (area of block b)
	frac map[string][]float64
}

// Rasterize computes the coverage of every floorplan block on the grid.
// The grid origin is expressed in the same coordinate frame as the
// floorplan (use Grid.OriginX/Y to place a die on a larger spreader grid).
func Rasterize(fp *Floorplan, grid Grid) *CoverageMap {
	cm := &CoverageMap{Grid: grid, frac: make(map[string][]float64, len(fp.Blocks))}
	for _, b := range fp.Blocks {
		f := make([]float64, grid.Cells())
		area := b.Rect.Area()
		// Restrict the scan to cells that can overlap the block.
		ix0, iy0 := grid.CellAt(b.Rect.X, b.Rect.Y)
		ix1, iy1 := grid.CellAt(b.Rect.X+b.Rect.W-1e-12, b.Rect.Y+b.Rect.H-1e-12)
		for iy := iy0; iy <= iy1; iy++ {
			for ix := ix0; ix <= ix1; ix++ {
				if ov := b.Rect.Intersect(grid.CellRect(ix, iy)); ov > 0 {
					f[grid.Index(ix, iy)] = ov / area
				}
			}
		}
		cm.blocks = append(cm.blocks, b.Name)
		cm.frac[b.Name] = f
	}
	return cm
}

// PowerMapInto distributes the given per-block powers (W) onto the grid,
// returning per-cell power (W). It writes into dst, grown as needed and
// returned (nil allocates), and overwrites every cell. Blocks absent from
// the map contribute nothing. An error is reported for powers naming
// unknown blocks. Accumulation runs in rasterization order, not map order:
// float addition is not associative and Go randomizes map iteration, so
// summing in a fixed order is what keeps repeated solves bit-identical.
func (cm *CoverageMap) PowerMapInto(dst []float64, blockPower map[string]float64) ([]float64, error) {
	for name := range blockPower {
		if _, ok := cm.frac[name]; !ok {
			return nil, fmt.Errorf("floorplan: power assigned to unknown block %q", name)
		}
	}
	cells := cm.Grid.Cells()
	if cap(dst) < cells {
		dst = make([]float64, cells)
	}
	out := dst[:cells]
	for i := range out {
		out[i] = 0
	}
	for _, name := range cm.blocks {
		p, ok := blockPower[name]
		if !ok || p == 0 {
			continue
		}
		for i, fr := range cm.frac[name] {
			if fr != 0 {
				out[i] += p * fr
			}
		}
	}
	return out, nil
}

// BlockFraction returns the coverage vector of one block (nil if unknown).
func (cm *CoverageMap) BlockFraction(name string) []float64 { return cm.frac[name] }

// Blocks returns the rasterized block names in floorplan order.
func (cm *CoverageMap) Blocks() []string { return cm.blocks }
