package thermal

import (
	"repro/internal/linalg"
)

// This file builds the geometric multigrid hierarchy for a Model: a chain
// of stencil operators over 2:1-coarsened (nx, ny) cell grids (layers are
// never merged — the stack is only a handful of layers deep and the
// strong vertical coupling is handled by the smoother), with
// full-weighting restriction and bilinear prolongation between levels.
//
// Coarse operators are rediscretized rather than assembled by a Galerkin
// triple product: a coarse edge aggregates the fine conductances crossing
// the corresponding coarse-cell interface (parallel paths add), divided
// by the coarsening factor along the edge (the cell pitch doubles, so the
// conduction path is twice as long). On a uniform grid this reproduces
// the direct discretization at the coarse pitch exactly, and it keeps
// every level a 7-point M-matrix — the same stencil type, the same
// red-black smoother. Extensive per-cell couplings (the board-side and
// convective boundary conductances, heat capacities) are block-summed,
// so coarse boundary cells see the same total heat path to the outside
// world as the fine cells they aggregate.

// coarsestCells is the per-layer cell count below which the hierarchy
// stops coarsening; the V-cycle then solves the coarsest system exactly
// by a banded Cholesky factorization whose half-bandwidth is one
// layer's cells (stencil.Bandwidth).
const coarsestCells = 32

// axisMap is the 1-D index pattern of a cell-centered 2:1 coarsening
// along one grid direction: every fine cell has a parent coarse cell and,
// for interpolation, the nearest coarse neighbor on the other side of the
// fine cell's center. At the domain edges there is no such neighbor, and
// the zero-flux lateral boundary makes constant extrapolation exact:
// there other is the parent itself and the weight toward it is zero, so
// the transfer kernels read both cells of every pair without a branch.
type axisMap struct {
	parent []int // fine index -> owning coarse index (ix/2)
	other  []int // second coarse cell of the interpolation pair; parent at edges
}

func newAxisMap(nFine, nCoarse int) axisMap {
	am := axisMap{
		parent: make([]int, nFine),
		other:  make([]int, nFine),
	}
	for i := 0; i < nFine; i++ {
		p := i / 2
		am.parent[i] = p
		o := p + 1
		if i%2 == 0 {
			o = p - 1
		}
		if o < 0 || o >= nCoarse {
			o = p
		}
		am.other[i] = o
	}
	return am
}

// transfer is the inter-level grid transfer: operator-induced bilinear
// prolongation of corrections and its transpose, full-weighting
// restriction of residuals. Every fine cell's weights sum to one, so
// restriction conserves the total residual heat (Watts) — the natural
// pairing with rediscretized coarse operators on an RC network.
//
// The per-cell directional weights come from the fine conductances: a
// fine cell interpolates toward the neighboring coarse cell with weight
// ½·g_other/(g_other + g_sibling), where g_other is the fine edge leading
// toward that neighbor and g_sibling the edge into the cell's own block.
// On smooth coefficients this is exactly the geometric bilinear ¼–¾
// stencil; across a strong conductivity jump (the silicon/underfill die
// boundary is 260:1) the weight collapses toward injection, which is what
// keeps the V-cycle contractive — geometric weights interpolate
// temperatures across the jump and make deep hierarchies diverge.
//
// The shared transferGrid holds the maps and weights; a transfer adds
// only the worker team its kernels dispatch on.
type transfer struct {
	*transferGrid

	// team parallelizes the transfers (nil = serial): Prolong gathers per
	// fine cell so it bands fine rows; Restrict and blockSum scatter into
	// the coarse level, so they partition over layer-slabs — layers never
	// couple in a transfer, which makes the slabs write-disjoint.
	team *linalg.Team
	job  transferJob
}

// transferGrid is the read-only part of a transfer, built once per
// Model. A fine cell with x weight wx toward its x-other coarse cell
// (and 1−wx toward its x-parent) and likewise wy in y feeds its four
// coarse cells with the bilinear products, stored per fine unknown in
// place of wx and wy: pp = (1−wx)(1−wy) for the parent pair, op =
// wx(1−wy), po = (1−wx)wy and oo = wx·wy. A cell whose other is its
// parent has weight 0 toward it, so its extra products are 0.
type transferGrid struct {
	nxf, nyf, nl   int
	cellsF         int
	nxc, nyc       int
	cellsC         int
	xm, ym         axisMap
	pp, op, po, oo []float64
}

// setTeam attaches the worker team the transfer kernels dispatch on.
func (t *transfer) setTeam(tm *linalg.Team) { t.team = tm }

// parallel reports whether this transfer's passes should use the team.
func (t *transfer) parallel() bool {
	return t.team.Workers() > 1 && t.nl*t.cellsF >= linalg.ParMin
}

// transferJob adapts one transfer pass to linalg.Task.
type transferJob struct {
	t              *transfer
	mode           int
	src, base, dst linalg.Vector
	from           int // first layer a block sum covers
}

const (
	jobRestrict = iota
	jobProlong
	jobBlockSum
)

// Do implements linalg.Task.
func (j *transferJob) Do(worker, workers int) {
	switch j.mode {
	case jobRestrict:
		lo, hi := linalg.Band(j.t.nl, worker, workers)
		j.t.restrictLayers(j.src, j.dst, lo, hi)
	case jobProlong:
		lo, hi := linalg.Band(j.t.nl*j.t.nyf, worker, workers)
		j.t.prolongRows(j.src, j.dst, lo, hi)
	case jobBlockSum:
		lo, hi := linalg.Band(j.t.nl-j.from, worker, workers)
		j.t.blockSumLayers(j.src, j.base, j.dst, j.from+lo, j.from+hi)
	}
}

// sideWeight computes the interpolation weight toward the other coarse
// cell from the fine edge conductances: gOther leads toward the other
// coarse cell, gSibling into the cell's own block.
func sideWeight(gOther, gSibling float64) float64 {
	if gOther == 0 {
		return 0
	}
	if gSibling == 0 {
		// Clipped single-cell block (odd grid edge): fall back to the
		// geometric weight.
		return 0.25
	}
	return 0.5 * gOther / (gOther + gSibling)
}

// sideWeights returns every fine unknown's weight toward its x-other and
// y-other coarse cell (0 where other is the parent).
func sideWeights(fine *stencil, xm, ym axisMap) (wx, wy []float64) {
	wx = make([]float64, fine.n)
	wy = make([]float64, fine.n)
	for l := 0; l < fine.nl; l++ {
		base := l * fine.cells
		for iy := 0; iy < fine.ny; iy++ {
			for ix := 0; ix < fine.nx; ix++ {
				i := base + iy*fine.nx + ix
				if xm.other[ix] != xm.parent[ix] {
					var gOther, gSibling float64
					if ix%2 == 0 { // other parent lies west
						gOther = fine.gx[i-1]
						gSibling = fine.gx[i]
					} else { // east
						gOther = fine.gx[i]
						gSibling = fine.gx[i-1]
					}
					wx[i] = sideWeight(gOther, gSibling)
				}
				if ym.other[iy] != ym.parent[iy] {
					var gOther, gSibling float64
					if iy%2 == 0 { // other parent lies south
						gOther = fine.gy[i-fine.nx]
						gSibling = fine.gy[i]
					} else { // north
						gOther = fine.gy[i]
						gSibling = fine.gy[i-fine.nx]
					}
					wy[i] = sideWeight(gOther, gSibling)
				}
			}
		}
	}
	return wx, wy
}

func newTransfer(fine, coarse *stencil) *transfer {
	g := &transferGrid{
		nxf: fine.nx, nyf: fine.ny, nl: fine.nl, cellsF: fine.cells,
		nxc: coarse.nx, nyc: coarse.ny, cellsC: coarse.cells,
		xm: newAxisMap(fine.nx, coarse.nx),
		ym: newAxisMap(fine.ny, coarse.ny),
		pp: make([]float64, fine.n),
		op: make([]float64, fine.n),
		po: make([]float64, fine.n),
		oo: make([]float64, fine.n),
	}
	wx, wy := sideWeights(fine, g.xm, g.ym)
	for i := range wx {
		wpx, wpy := 1-wx[i], 1-wy[i]
		g.pp[i] = wpx * wpy
		g.op[i] = wx[i] * wpy
		g.po[i] = wpx * wy[i]
		g.oo[i] = wx[i] * wy[i]
	}
	return &transfer{transferGrid: g}
}

// Restrict projects a fine residual onto the coarse grid by full
// weighting (the transpose of Prolong), overwriting coarse.
func (t *transfer) Restrict(fine, coarse linalg.Vector) {
	if t.parallel() {
		t.job = transferJob{t: t, mode: jobRestrict, src: fine, dst: coarse}
		t.team.Run(&t.job)
		return
	}
	t.restrictLayers(fine, coarse, 0, t.nl)
}

// restrictLayers restricts the layer-slab [lLo, lHi): the scatter into a
// coarse layer only ever comes from the fine layer directly above it, so
// slabs are write-disjoint across workers. Every fine cell scatters into
// all four cells of its pair, a zero-weight one included (see
// transferGrid); adding 0·v leaves a coarse sum's bits as they are unless
// it is −0, as in the stencil kernels.
func (t *transfer) restrictLayers(fine, coarse linalg.Vector, lLo, lHi int) {
	coarse[lLo*t.cellsC : lHi*t.cellsC].Fill(0)
	for l := lLo; l < lHi; l++ {
		baseC := l * t.cellsC
		for iy := 0; iy < t.nyf; iy++ {
			rowP := baseC + t.ym.parent[iy]*t.nxc
			rowO := baseC + t.ym.other[iy]*t.nxc
			cP, cO := coarse[rowP:rowP+t.nxc], coarse[rowO:rowO+t.nxc]
			rowF := (l*t.nyf + iy) * t.nxf
			f := fine[rowF : rowF+t.nxf]
			pp, op, po, oo, px, ox := t.row(rowF)
			for ix, v := range f {
				cP[px[ix]] += pp[ix] * v
				cP[ox[ix]] += op[ix] * v
				cO[px[ix]] += po[ix] * v
				cO[ox[ix]] += oo[ix] * v
			}
		}
	}
}

// Prolong interpolates a coarse correction with the operator-induced
// bilinear weights and adds it into the fine iterate. Each fine cell
// gathers from its (frozen) coarse parents, so fine rows band across the
// team freely.
func (t *transfer) Prolong(coarse, fine linalg.Vector) {
	if t.parallel() {
		t.job = transferJob{t: t, mode: jobProlong, src: coarse, dst: fine}
		t.team.Run(&t.job)
		return
	}
	t.prolongRows(coarse, fine, 0, t.nl*t.nyf)
}

// prolongRows interpolates the fine global rows [rowLo, rowHi), each
// fine cell gathering all four cells of its pair (see restrictLayers).
func (t *transfer) prolongRows(coarse, fine linalg.Vector, rowLo, rowHi int) {
	for g := rowLo; g < rowHi; g++ {
		l, iy := g/t.nyf, g%t.nyf
		baseC := l * t.cellsC
		rowP := baseC + t.ym.parent[iy]*t.nxc
		rowO := baseC + t.ym.other[iy]*t.nxc
		cP, cO := coarse[rowP:rowP+t.nxc], coarse[rowO:rowO+t.nxc]
		rowF := g * t.nxf
		f := fine[rowF : rowF+t.nxf]
		pp, op, po, oo, px, ox := t.row(rowF)
		for ix := range f {
			v := pp[ix] * cP[px[ix]]
			v += op[ix] * cP[ox[ix]]
			v += po[ix] * cO[px[ix]]
			v += oo[ix] * cO[ox[ix]]
			f[ix] += v
		}
	}
}

// row returns the weight products and x maps of the fine row that starts
// at unknown rowF, each cut to the row's length so the kernels index
// them without bounds checks.
func (g *transferGrid) row(rowF int) (pp, op, po, oo []float64, px, ox []int) {
	n := g.nxf
	return g.pp[rowF : rowF+n], g.op[rowF : rowF+n], g.po[rowF : rowF+n], g.oo[rowF : rowF+n],
		g.xm.parent[:n], g.xm.other[:n]
}

// blockSum restricts an extensive per-unknown quantity (boundary
// conductance, heat capacity) of layers from..nl−1 by summing each
// coarse cell's children; the coarse layers below from are left as they
// are. With a non-nil base it sums fine − base instead, each difference
// rounded before it is added, exactly as if fine − base had been stored
// first.
func (t *transfer) blockSum(fine, base, coarse linalg.Vector, from int) {
	if t.parallel() && t.nl-from > 1 {
		t.job = transferJob{t: t, mode: jobBlockSum, src: fine, base: base, dst: coarse, from: from}
		t.team.Run(&t.job)
		return
	}
	t.blockSumLayers(fine, base, coarse, from, t.nl)
}

// blockSumLayers block-sums the layer-slab [lLo, lHi); like restriction,
// the scatter never leaves the layer, so slabs are write-disjoint.
func (t *transfer) blockSumLayers(fine, base, coarse linalg.Vector, lLo, lHi int) {
	coarse[lLo*t.cellsC : lHi*t.cellsC].Fill(0)
	for l := lLo; l < lHi; l++ {
		baseF := l * t.cellsF
		baseC := l * t.cellsC
		for iy := 0; iy < t.nyf; iy++ {
			rowC := baseC + t.ym.parent[iy]*t.nxc
			rowF := baseF + iy*t.nxf
			for ix := 0; ix < t.nxf; ix++ {
				v := fine[rowF+ix]
				if base != nil {
					v -= base[rowF+ix]
				}
				coarse[rowC+t.xm.parent[ix]] += v
			}
		}
	}
}

// coarsen rediscretizes a stencil on the 2:1-coarsened grid. Only the
// conductances are built here; each workspace assembles the diagonal per
// solve in hierarchy.refresh (it depends on the boundary condition and
// time step).
func coarsen(f *stencil) (*stencil, *transfer) {
	nxc := (f.nx + 1) / 2
	nyc := (f.ny + 1) / 2
	c := &stencil{
		nx: nxc, ny: nyc, nl: f.nl,
		cells: nxc * nyc,
		n:     nxc * nyc * f.nl,
		zero:  f.zero[:nxc*nyc],
	}
	gxw := make([]float64, c.n+1)
	c.gw, c.gx = gxw[:c.n], gxw[1:]
	c.gy = make([]float64, c.n)
	if f.nl > 1 {
		c.gz = make([]float64, (f.nl-1)*c.cells)
	}
	for l := 0; l < f.nl; l++ {
		baseF := l * f.cells
		baseC := l * c.cells
		// x edges: the fine edges crossing a coarse interface are those
		// at odd fine ix; parallel paths add, and the doubled cell pitch
		// halves the aggregate (the conduction path is twice as long).
		for jc := 0; jc < nyc; jc++ {
			for ic := 0; ic < nxc-1; ic++ {
				var sum float64
				ix := 2*ic + 1
				for iy := 2 * jc; iy < 2*jc+2 && iy < f.ny; iy++ {
					sum += f.gx[baseF+iy*f.nx+ix]
				}
				c.gx[baseC+jc*nxc+ic] = sum / 2
			}
		}
		// y edges, symmetric.
		for jc := 0; jc < nyc-1; jc++ {
			iy := 2*jc + 1
			for ic := 0; ic < nxc; ic++ {
				var sum float64
				for ix := 2 * ic; ix < 2*ic+2 && ix < f.nx; ix++ {
					sum += f.gy[baseF+iy*f.nx+ix]
				}
				c.gy[baseC+jc*nxc+ic] = sum / 2
			}
		}
	}
	// z edges: no coarsening between layers — the coarse face area is the
	// sum of its children's faces, so the conductances simply add.
	for l := 0; l < f.nl-1; l++ {
		baseF := l * f.cells
		baseC := l * c.cells
		for jc := 0; jc < nyc; jc++ {
			for ic := 0; ic < nxc; ic++ {
				var sum float64
				for iy := 2 * jc; iy < 2*jc+2 && iy < f.ny; iy++ {
					for ix := 2 * ic; ix < 2*ic+2 && ix < f.nx; ix++ {
						sum += f.gz[baseF+iy*f.nx+ix]
					}
				}
				c.gz[baseC+jc*nxc+ic] = sum
			}
		}
	}
	return c, newTransfer(f, c)
}

// baseDiagOf precomputes the constant part of a stencil's diagonal: the
// sum of incident conductances, mirroring fillOperator's accumulation.
func baseDiagOf(s *stencil) linalg.Vector {
	d := make(linalg.Vector, s.n)
	nx, cells := s.nx, s.cells
	for l := 0; l < s.nl; l++ {
		base := l * cells
		for c := 0; c < cells; c++ {
			i := base + c
			var v float64
			if g := s.gx[i]; g != 0 {
				v += g
			}
			if c%nx != 0 {
				v += s.gx[i-1]
			}
			if g := s.gy[i]; g != 0 {
				v += g
			}
			if c >= nx {
				v += s.gy[i-nx]
			}
			if l < s.nl-1 {
				v += s.gz[i]
			}
			if l > 0 {
				v += s.gz[i-cells]
			}
			d[i] = v
		}
	}
	return d
}

// mgGeometry is the read-only part of a Model's multigrid hierarchy:
// each level's grid and conductances, its conductance-sum diagonal, and
// the transfer weights and axis maps to the next coarser level. It
// depends only on the Model, so the Model builds it once
// (Model.mgGeometry) and every workspace's hierarchy shares it; nothing
// writes it after the build, which is what lets pooled sessions of one
// System solve on it concurrently.
type mgGeometry struct {
	levels []geoLevel
}

// geoLevel is one level of the shared geometry. st holds the grid and
// conductances only (no diagonal, no team); the fine level's aliases the
// Model's. down has no team either and is nil on the coarsest level.
type geoLevel struct {
	st       stencil
	baseDiag linalg.Vector // sum of incident conductances
	down     *transfer
}

// newMGGeometry coarsens the model's grid in (nx, ny) until the per-layer
// grid is small enough for the coarsest level's exact solve.
func newMGGeometry(m *Model) *mgGeometry {
	cur := &stencil{
		nx: m.nx, ny: m.ny, nl: m.nl, cells: m.cells, n: m.n,
		gx: m.gx, gy: m.gy, gz: m.gz, gw: m.gw, zero: m.zero,
	}
	g := &mgGeometry{levels: []geoLevel{{st: *cur}}}
	for cur.cells > coarsestCells && cur.nx > 2 && cur.ny > 2 {
		c, t := coarsen(cur)
		g.levels[len(g.levels)-1].down = t
		g.levels = append(g.levels, geoLevel{st: *c})
		cur = c
	}
	for k := range g.levels {
		g.levels[k].baseDiag = baseDiagOf(&g.levels[k].st)
	}
	return g
}

// mgLevel is one level of a workspace's hierarchy: shells over the
// shared geometry that own only what a solve writes and the worker team
// the kernels dispatch on.
type mgLevel struct {
	st      *stencil      // shared conductances, own diagonal and team
	extDiag linalg.Vector // boundary + capacitive terms; nil on the fine level
	down    *transfer     // shared weights, own team; nil on the coarsest level
}

// hierarchy is a workspace's multigrid ladder. The finest level aliases
// the owning workspace's operator stencil, so fillOperator's diagonal is
// the one the fine smoother sees; coarse levels own their diagonals over
// the Model's shared conductances. Only diagonals and the coarsest
// level's factor change between solves.
type hierarchy struct {
	geo    *mgGeometry
	levels []mgLevel
	mg     *linalg.Multigrid
}

// newHierarchy builds a workspace's level ladder over its fine stencil
// and the model's shared geometry.
func newHierarchy(m *Model, fine *stencil) (*hierarchy, error) {
	geo := m.mgGeometry()
	h := &hierarchy{geo: geo, levels: make([]mgLevel, len(geo.levels))}
	mls := make([]linalg.MGLevel, len(geo.levels))
	for k := range geo.levels {
		gl, lv := &geo.levels[k], &h.levels[k]
		lv.st = fine
		if k > 0 {
			st := gl.st // the copy shares the conductance arrays
			st.diag = make(linalg.Vector, st.n)
			st.invDiag = make(linalg.Vector, st.n)
			lv.st = &st
			lv.extDiag = make(linalg.Vector, st.n)
		}
		mls[k].A = lv.st
		if gl.down != nil {
			t := *gl.down // the copy shares the weights and axis maps
			lv.down = &t
			mls[k].Down = lv.down
		}
	}
	mg, err := linalg.NewMultigrid(mls)
	if err != nil {
		return nil, err
	}
	h.mg = mg
	return h, nil
}

// setTeam attaches the worker team to every level's stencil and transfer.
// The fine stencil aliases the owning workspace's operator, so setting it
// here and in Workspace.SetThreads is idempotent; coarse levels gate on
// their own size, keeping the deep-ladder tail serial where dispatch
// would cost more than the sweep.
func (h *hierarchy) setTeam(t *linalg.Team) {
	for _, lv := range h.levels {
		lv.st.setTeam(t)
		if lv.down != nil {
			lv.down.setTeam(t)
		}
	}
}

// refresh rebuilds the coarse levels' diagonals from the fine diagonal
// fillOperator has already assembled for this solve, then refactors the
// coarsest level. The fine external terms (boundary conductances,
// capacitive C/dt) are recovered by subtracting the precomputed
// conductance sum from the filled diagonal — baseDiagOf mirrors
// fillOperator's accumulation order, so the subtraction is exact for
// interior cells and, crucially, any term a future fillOperator adds
// flows down the ladder automatically instead of silently
// desynchronizing the coarse levels.
//
// Only layers from..nl−1 are rebuilt: the caller passes the first fine
// layer whose diagonal changed since the last refresh. Layers never mix
// in a block sum, so the coarse diagonals below from are unchanged, and
// so are the coarsest factor's rows before that layer's first unknown
// (Cholesky row i depends only on rows ≤ i). A steady pass changes only
// the top layer. Allocation-free.
func (h *hierarchy) refresh(from int) {
	for k := 1; k < len(h.levels); k++ {
		finer, lv := h.levels[k-1], h.levels[k]
		if k == 1 {
			finer.down.blockSum(finer.st.diag, h.geo.levels[0].baseDiag, lv.extDiag, from)
		} else {
			finer.down.blockSum(finer.extDiag, nil, lv.extDiag, from)
		}
		base := h.geo.levels[k].baseDiag
		for i := from * lv.st.cells; i < len(lv.st.diag); i++ {
			d := base[i] + lv.extDiag[i]
			lv.st.diag[i] = d
			lv.st.invDiag[i] = 1 / d
		}
	}
	h.mg.FactorFrom(from * h.levels[len(h.levels)-1].st.cells)
}
