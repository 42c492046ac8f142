package thermal

import "repro/internal/linalg"

// stencil is the 7-point conduction stencil over an (nx, ny, nl) cell
// grid: per-edge conductances in x, y (within a layer) and z (between
// consecutive layers) plus a full diagonal. It is the shared operator
// representation of every level of the solve stack — the fine level
// aliases the Model's conductance arrays, coarse multigrid levels own
// aggregated copies — and implements linalg.Operator and Smoother.
//
// Indexing matches Model: unknown i = l·cells + iy·nx + ix; gx[i] couples
// i to i+1 (stored at the west cell, zero in the last column), gy[i]
// couples i to i+nx (zero in the last row), gz[l·cells+c] couples layer l
// to l+1 at cell c.
//
// Apply, Residual and Smooth are written as gather kernels over grid rows
// (global row g = l·ny + iy): every output element is computed alone from
// frozen inputs, so the rows can be banded across a worker team and the
// result is byte-identical at any thread count. The gather order mirrors
// the historical scatter accumulation exactly (diagonal, below, south,
// west, east, north, above), so the parallel rewrite changed no bits.
//
// The kernels carry no branch per cell: every term of the gather is
// evaluated, and a cell on the grid's edge adds g·x with g = 0 for the
// neighbour it lacks — the zero conductance the representation stores
// there, or the zero row where the neighbour would lie outside the
// arrays. Apply and Residual walk a row band in spans (spanEnd) whose
// neighbour directions are fixed for the whole span (span); the red-black
// kernels, which write x while they read it, walk it row by row
// (colorRows). Spans are the faster walk (an apply row by row took 1.6×
// as long at coarse and at medium), but a span reads the x of off-grid
// neighbours that lie in the arrays, which a concurrent half-sweep may be
// writing. For finite x an added 0·x leaves a sum's bits as they are,
// unless the sum is −0 (−0 + 0 = +0), so the kernels match the earlier
// ones that skipped zero terms bit for bit on every input but an exact
// zero's sign (FuzzStencilKernels).
type stencil struct {
	nx, ny, nl int
	cells      int // per layer
	n          int // total unknowns

	gx, gy, gz []float64
	diag       linalg.Vector
	invDiag    linalg.Vector

	// gw is gx seen from the east cell of each coupling: gw[i] couples i
	// to i−1, so gw[i] = gx[i−1] and gw[0] = 0. It shares gx's storage,
	// one leading zero ahead of it.
	gw []float64

	// zero is at least cells zeros, shared and never written: the
	// coupling of a neighbour the grid does not have (see span).
	zero []float64

	// team is the shared worker team (nil = serial); job is the persistent
	// dispatch adapter so parallel kernels allocate nothing per call.
	team *linalg.Team
	job  stencilJob
}

// The stencil and transfer kernels share linalg.ParMin as their size
// gate: below it a pass runs on the calling goroutine (the coarse
// multigrid levels stay serial, the fine levels fan out). Size-gated, so
// results cannot depend on it; see the derivation on linalg.ParMin.

// setTeam attaches the worker team the row kernels dispatch on.
func (s *stencil) setTeam(t *linalg.Team) { s.team = t }

// parallel reports whether a pass over this stencil should use the team.
func (s *stencil) parallel() bool {
	return s.team.Workers() > 1 && s.n >= linalg.ParMin
}

// stencilJob adapts one stencil pass to linalg.Task: workers band the
// nl·ny grid rows and run the mode's row kernel over their share.
type stencilJob struct {
	s       *stencil
	mode    int
	b, x, y linalg.Vector
	color   int
}

const (
	jobApply = iota
	jobResidual
	jobSmooth
	jobSmoothResidual
	jobResidualColor
)

// Do implements linalg.Task.
func (j *stencilJob) Do(worker, workers int) {
	lo, hi := linalg.Band(j.s.nl*j.s.ny, worker, workers)
	switch j.mode {
	case jobApply:
		j.s.applyRows(j.x, j.y, lo, hi)
	case jobResidual:
		j.s.residualRows(j.b, j.x, j.y, lo, hi)
	case jobSmooth:
		j.s.colorRows(j.b, j.x, nil, j.color, true, lo, hi)
	case jobSmoothResidual:
		j.s.colorRows(j.b, j.x, j.y, j.color, true, lo, hi)
	case jobResidualColor:
		j.s.colorRows(j.b, j.x, j.y, j.color, false, lo, hi)
	}
}

// The stencil is the V-cycle's level operator, and lists its band for
// the coarsest level's exact solve.
var (
	_ linalg.Smoother = (*stencil)(nil)
	_ linalg.Banded   = (*stencil)(nil)
)

// Size returns the dimension of the operator.
func (s *stencil) Size() int { return s.n }

// Bandwidth implements linalg.Banded: in layer-major order the farthest
// lower neighbor of a cell is the same cell one layer down, one layer's
// cells away.
func (s *stencil) Bandwidth() int { return s.cells }

// LowerBand implements linalg.Banded: row i of the lower band holds the
// below, south and west couplings and the diagonal.
func (s *stencil) LowerBand(i int, row linalg.Vector) {
	w, nx := s.cells, s.nx
	row.Fill(0)
	c := i % w
	if i >= w {
		row[0] = -s.gz[i-w]
	}
	if c >= nx {
		row[w-nx] = -s.gy[i-nx]
	}
	if c%nx != 0 {
		row[w-1] = -s.gx[i-1]
	}
	row[w] = s.diag[i]
}

// Apply computes y = A·x for the assembled stencil, banding the grid rows
// across the worker team when one is attached.
func (s *stencil) Apply(x, y linalg.Vector) {
	if s.parallel() {
		s.job = stencilJob{s: s, mode: jobApply, x: x, y: y}
		s.team.Run(&s.job)
		return
	}
	s.applyRows(x, y, 0, s.nl*s.ny)
}

// nbr is one neighbour direction of a span of cells: g[k] couples cell
// lo+k of the span to that neighbour, whose value is x[k].
type nbr struct{ g, x []float64 }

// nbrs holds a span's six neighbour directions in the gather order of
// the Apply and Residual kernels.
type nbrs struct{ below, south, west, east, north, above nbr }

// spanEnd returns where the span of cells that starts at lo ends, at most
// at end. Spans split the grid where a neighbour direction starts or
// stops existing: they isolate the bottom layer and the top layer (the
// only ones without a layer below, or above), and within those the grid's
// first cell and the rest of its first row, and its last row and last
// cell (the only cells whose south, west, east or north neighbour would
// index outside the arrays). A whole pass over a grid is then at most
// seven spans, whatever its size.
func (s *stencil) spanEnd(lo, end int) int {
	hi := end
	for _, b := range [...]int{1, s.nx, s.cells, s.n - s.cells, s.n - s.nx, s.n - 1} {
		if lo < b && b < hi {
			hi = b
		}
	}
	return hi
}

// span returns the neighbour directions of the cells [lo, hi), a span
// from spanEnd. A direction with no neighbour cell anywhere in the span
// gets the zero row paired with the span's own values. Everywhere else
// the directions are read unconditionally: a neighbour that exists in the
// arrays but not on the grid (the next row's first cell east of a row's
// last, the layer below's last row south of a layer's first) is coupled
// by a conductance the representation stores as zero.
func (s *stencil) span(x linalg.Vector, lo, hi int) nbrs {
	nx, cells, n := s.nx, s.cells, s.n
	var v nbrs
	if lo >= cells {
		v.below = nbr{s.gz[lo-cells : hi-cells], x[lo-cells : hi-cells]}
	} else {
		v.below = s.none(x, lo, hi)
	}
	if lo >= nx {
		v.south = nbr{s.gy[lo-nx : hi-nx], x[lo-nx : hi-nx]}
	} else {
		v.south = s.none(x, lo, hi)
	}
	if lo >= 1 {
		v.west = nbr{s.gw[lo:hi], x[lo-1 : hi-1]}
	} else {
		v.west = s.none(x, lo, hi)
	}
	if hi < n {
		v.east = nbr{s.gx[lo:hi], x[lo+1 : hi+1]}
	} else {
		v.east = s.none(x, lo, hi)
	}
	if hi+nx <= n {
		v.north = nbr{s.gy[lo:hi], x[lo+nx : hi+nx]}
	} else {
		v.north = s.none(x, lo, hi)
	}
	if hi+cells <= n {
		v.above = nbr{s.gz[lo:hi], x[lo+cells : hi+cells]}
	} else {
		v.above = s.none(x, lo, hi)
	}
	return v
}

// none is the direction of a span with no neighbour: the zero row paired
// with the span's own values. Only spans within the bottom or top layer
// lack one, so the row's cells zeros suffice.
func (s *stencil) none(x linalg.Vector, lo, hi int) nbr {
	return nbr{s.zero[:hi-lo], x[lo:hi]}
}

// applyRows computes y = A·x over global rows [rowLo, rowHi), span by
// span, with no branch per cell (see the stencil comment).
func (s *stencil) applyRows(x, y linalg.Vector, rowLo, rowHi int) {
	for lo, end := rowLo*s.nx, rowHi*s.nx; lo < end; {
		hi := s.spanEnd(lo, end)
		v, n := s.span(x, lo, hi), hi-lo
		gb, xb, gs, xs := v.below.g[:n], v.below.x[:n], v.south.g[:n], v.south.x[:n]
		gw, xw, ge, xe := v.west.g[:n], v.west.x[:n], v.east.g[:n], v.east.x[:n]
		gn, xn, ga, xa := v.north.g[:n], v.north.x[:n], v.above.g[:n], v.above.x[:n]
		yc, xc, d := y[lo:hi], x[lo:hi], s.diag[lo:hi]
		for k := 0; k < n; k++ {
			a := d[k] * xc[k]
			a -= gb[k] * xb[k]
			a -= gs[k] * xs[k]
			a -= gw[k] * xw[k]
			a -= ge[k] * xe[k]
			a -= gn[k] * xn[k]
			a -= ga[k] * xa[k]
			yc[k] = a
		}
		lo = hi
	}
}

// Residual computes r = b - A·x, fused into the apply pass (the
// subtraction costs no extra memory traffic and the bytes match the
// two-pass form exactly).
func (s *stencil) Residual(b, x, r linalg.Vector) {
	if s.parallel() {
		s.job = stencilJob{s: s, mode: jobResidual, b: b, x: x, y: r}
		s.team.Run(&s.job)
		return
	}
	s.residualRows(b, x, r, 0, s.nl*s.ny)
}

// residualRows computes r = b - A·x over a row band, like applyRows.
func (s *stencil) residualRows(b, x, r linalg.Vector, rowLo, rowHi int) {
	for lo, end := rowLo*s.nx, rowHi*s.nx; lo < end; {
		hi := s.spanEnd(lo, end)
		v, n := s.span(x, lo, hi), hi-lo
		gb, xb, gs, xs := v.below.g[:n], v.below.x[:n], v.south.g[:n], v.south.x[:n]
		gw, xw, ge, xe := v.west.g[:n], v.west.x[:n], v.east.g[:n], v.east.x[:n]
		gn, xn, ga, xa := v.north.g[:n], v.north.x[:n], v.above.g[:n], v.above.x[:n]
		rc, bc, xc, d := r[lo:hi], b[lo:hi], x[lo:hi], s.diag[lo:hi]
		for k := 0; k < n; k++ {
			a := d[k] * xc[k]
			a -= gb[k] * xb[k]
			a -= gs[k] * xs[k]
			a -= gw[k] * xw[k]
			a -= ge[k] * xe[k]
			a -= gn[k] * xn[k]
			a -= ga[k] * xa[k]
			rc[k] = bc[k] - a
		}
		lo = hi
	}
}

// Smooth performs one red-black Gauss-Seidel sweep (ω = 1). Cells are
// colored by (ix+iy+l) parity, so every cell of one color updates against
// a frozen opposite color: the sweep result is independent of traversal
// order within a color, which is exactly what lets the rows of one color
// fan out across the worker team — one barrier per color — with the
// result byte-identical to the serial sweep. Forward relaxes red (parity
// 0) then black; reverse relaxes black then red — the reversal V-cycles
// need for a symmetric pre/post smoothing pair.
func (s *stencil) Smooth(b, x linalg.Vector, reverse bool) {
	colors := [2]int{0, 1}
	if reverse {
		colors = [2]int{1, 0}
	}
	if s.parallel() {
		for _, color := range colors {
			s.job = stencilJob{s: s, mode: jobSmooth, b: b, x: x, color: color}
			s.team.Run(&s.job)
		}
		return
	}
	for _, color := range colors {
		s.colorRows(b, x, nil, color, true, 0, s.nl*s.ny)
	}
}

// SmoothResidual implements linalg.Smoother: one forward red-black
// sweep plus the residual of the updated iterate, bit-identical to
// Smooth(b, x, false) followed by Residual(b, x, r) but with one less
// full pass over the field and coefficient arrays. The fusion exploits
// the coloring: every neighbor of a black cell is red, so once the red
// half-sweep is done, relaxing a black cell leaves its entire stencil
// neighborhood final — its residual can be evaluated in the same visit,
// while the coefficients and neighbor temperatures are still hot. Only
// the red residuals need a trailing half-pass (they read the black values
// the second phase just wrote). Barriers sit exactly where gather order
// requires them: after the red half-sweep and after the black phase.
func (s *stencil) SmoothResidual(b, x, r linalg.Vector) {
	if s.parallel() {
		s.job = stencilJob{s: s, mode: jobSmooth, b: b, x: x, color: 0}
		s.team.Run(&s.job)
		s.job = stencilJob{s: s, mode: jobSmoothResidual, b: b, x: x, y: r, color: 1}
		s.team.Run(&s.job)
		s.job = stencilJob{s: s, mode: jobResidualColor, b: b, x: x, y: r, color: 0}
		s.team.Run(&s.job)
		return
	}
	rows := s.nl * s.ny
	s.colorRows(b, x, nil, 0, true, 0, rows)
	s.colorRows(b, x, r, 1, true, 0, rows)
	s.colorRows(b, x, r, 0, false, 0, rows)
}

// colorRows visits the cells of one color over a row band, row by row,
// with no branch per cell. It relaxes them (relax, one red-black
// half-sweep), evaluates the residual r = b - A·x at them (r non-nil),
// or both: the fused pass of SmoothResidual, which relaxes a cell and
// evaluates its residual in the same visit. The relaxation is the same
// expression in both passes and the residual is residualRows' gather
// on the just-updated x, so the fused pass changes no bytes.
//
// A half-sweep writes x while it reads it, so a row reads no x value off
// the grid: where a neighbour is not on the grid (the row south of a
// layer's first, the cell west of a row's first, …) the row reads the
// cell's own value instead — written by no other worker, and only after
// the read — against the zero conductance stored there (gw, gy's last
// row, gx's last column) or the zero row. Every neighbour on the grid
// has the opposite color and is frozen for the pass.
func (s *stencil) colorRows(b, x, r linalg.Vector, color int, relax bool, rowLo, rowHi int) {
	nx, cells, zero := s.nx, s.cells, s.zero[:s.nx]
	for g, iy, l := rowLo, rowLo%s.ny, rowLo/s.ny; g < rowHi; g++ {
		i := g * nx
		xr := x[i : i+nx]
		gw, ge, gn := s.gw[i:i+nx], s.gx[i:i+nx], s.gy[i:i+nx]
		gs, xs, xn, gb, xb, ga, xa := zero, xr, xr, zero, xr, zero, xr
		if iy > 0 {
			gs, xs = s.gy[i-nx:i], x[i-nx:i]
		}
		if iy < s.ny-1 {
			xn = x[i+nx : i+2*nx]
		}
		if l > 0 {
			gb, xb = s.gz[i-cells:i-cells+nx], x[i-cells:i-cells+nx]
		}
		if l < s.nl-1 {
			ga, xa = s.gz[i:i+nx], x[i+cells:i+cells+nx]
		}
		bc, inv, d := b[i:i+nx], s.invDiag[i:i+nx], s.diag[i:i+nx]
		j := (color + iy + l) & 1
		switch {
		case r == nil:
			for ; j < nx; j += 2 {
				su := bc[j]
				su += gw[j] * xr[max(j-1, 0)]
				su += ge[j] * xr[min(j+1, nx-1)]
				su += gs[j] * xs[j]
				su += gn[j] * xn[j]
				su += gb[j] * xb[j]
				su += ga[j] * xa[j]
				xr[j] = su * inv[j]
			}
		case relax:
			rc := r[i : i+nx]
			for ; j < nx; j += 2 {
				w, e := max(j-1, 0), min(j+1, nx-1)
				su := bc[j]
				su += gw[j] * xr[w]
				su += ge[j] * xr[e]
				su += gs[j] * xs[j]
				su += gn[j] * xn[j]
				su += gb[j] * xb[j]
				su += ga[j] * xa[j]
				xr[j] = su * inv[j]

				a := d[j] * xr[j]
				a -= gb[j] * xb[j]
				a -= gs[j] * xs[j]
				a -= gw[j] * xr[w]
				a -= ge[j] * xr[e]
				a -= gn[j] * xn[j]
				a -= ga[j] * xa[j]
				rc[j] = bc[j] - a
			}
		default:
			rc := r[i : i+nx]
			for ; j < nx; j += 2 {
				a := d[j] * xr[j]
				a -= gb[j] * xb[j]
				a -= gs[j] * xs[j]
				a -= gw[j] * xr[max(j-1, 0)]
				a -= ge[j] * xr[min(j+1, nx-1)]
				a -= gn[j] * xn[j]
				a -= ga[j] * xa[j]
				rc[j] = bc[j] - a
			}
		}
		if iy++; iy == s.ny {
			iy, l = 0, l+1
		}
	}
}
