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
type stencil struct {
	nx, ny, nl int
	cells      int // per layer
	n          int // total unknowns

	gx, gy, gz []float64
	diag       linalg.Vector
	invDiag    linalg.Vector

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
		j.s.smoothRows(j.b, j.x, j.color, lo, hi)
	case jobSmoothResidual:
		j.s.smoothResidualRows(j.b, j.x, j.y, j.color, lo, hi)
	case jobResidualColor:
		j.s.residualColorRows(j.b, j.x, j.y, j.color, lo, hi)
	}
}

// The stencil provides the fused smoothing kernel the V-cycle driver
// dispatches on when available.
var _ linalg.FusedSmoother = (*stencil)(nil)

// Size returns the dimension of the operator.
func (s *stencil) Size() int { return s.n }

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

// applyRows is the gather kernel for y = A·x over global rows [rowLo, rowHi).
func (s *stencil) applyRows(x, y linalg.Vector, rowLo, rowHi int) {
	nx, ny, cells := s.nx, s.ny, s.cells
	for g := rowLo; g < rowHi; g++ {
		l, iy := g/ny, g%ny
		i := l*cells + iy*nx
		for ix := 0; ix < nx; ix++ {
			v := s.diag[i] * x[i]
			if l > 0 {
				if gz := s.gz[i-cells]; gz != 0 {
					v -= gz * x[i-cells]
				}
			}
			if iy > 0 {
				if gy := s.gy[i-nx]; gy != 0 {
					v -= gy * x[i-nx]
				}
			}
			if ix > 0 {
				if gx := s.gx[i-1]; gx != 0 {
					v -= gx * x[i-1]
				}
			}
			if gx := s.gx[i]; gx != 0 {
				v -= gx * x[i+1]
			}
			if gy := s.gy[i]; gy != 0 {
				v -= gy * x[i+nx]
			}
			if l < s.nl-1 {
				if gz := s.gz[i]; gz != 0 {
					v -= gz * x[i+cells]
				}
			}
			y[i] = v
			i++
		}
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

// residualRows is the gather kernel for r = b - A·x over a row band.
func (s *stencil) residualRows(b, x, r linalg.Vector, rowLo, rowHi int) {
	nx, ny, cells := s.nx, s.ny, s.cells
	for g := rowLo; g < rowHi; g++ {
		l, iy := g/ny, g%ny
		i := l*cells + iy*nx
		for ix := 0; ix < nx; ix++ {
			v := s.diag[i] * x[i]
			if l > 0 {
				if gz := s.gz[i-cells]; gz != 0 {
					v -= gz * x[i-cells]
				}
			}
			if iy > 0 {
				if gy := s.gy[i-nx]; gy != 0 {
					v -= gy * x[i-nx]
				}
			}
			if ix > 0 {
				if gx := s.gx[i-1]; gx != 0 {
					v -= gx * x[i-1]
				}
			}
			if gx := s.gx[i]; gx != 0 {
				v -= gx * x[i+1]
			}
			if gy := s.gy[i]; gy != 0 {
				v -= gy * x[i+nx]
			}
			if l < s.nl-1 {
				if gz := s.gz[i]; gz != 0 {
					v -= gz * x[i+cells]
				}
			}
			r[i] = b[i] - v
			i++
		}
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
		s.smoothRows(b, x, color, 0, s.nl*s.ny)
	}
}

// smoothRows relaxes one color of a red-black sweep over a row band.
func (s *stencil) smoothRows(b, x linalg.Vector, color, rowLo, rowHi int) {
	nx, ny, cells := s.nx, s.ny, s.cells
	for g := rowLo; g < rowHi; g++ {
		l, iy := g/ny, g%ny
		row := l*cells + iy*nx
		for ix := (color + iy + l) & 1; ix < nx; ix += 2 {
			i := row + ix
			su := b[i]
			if ix > 0 {
				su += s.gx[i-1] * x[i-1]
			}
			if g := s.gx[i]; g != 0 {
				su += g * x[i+1]
			}
			if iy > 0 {
				su += s.gy[i-nx] * x[i-nx]
			}
			if g := s.gy[i]; g != 0 {
				su += g * x[i+nx]
			}
			if l > 0 {
				su += s.gz[i-cells] * x[i-cells]
			}
			if l < s.nl-1 {
				if g := s.gz[i]; g != 0 {
					su += g * x[i+cells]
				}
			}
			x[i] = su * s.invDiag[i]
		}
	}
}

// SmoothResidual implements linalg.FusedSmoother: one forward red-black
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
	s.smoothRows(b, x, 0, 0, rows)
	s.smoothResidualRows(b, x, r, 1, 0, rows)
	s.residualColorRows(b, x, r, 0, 0, rows)
}

// smoothResidualRows relaxes one color of a red-black sweep over a row
// band and evaluates the residual at the relaxed cells in the same visit.
// The relaxation reproduces smoothRows bit for bit; the residual
// reproduces residualRows bit for bit (same gather expression on the
// just-updated x), so the fused pass changes no bytes anywhere.
func (s *stencil) smoothResidualRows(b, x, r linalg.Vector, color, rowLo, rowHi int) {
	nx, ny, cells := s.nx, s.ny, s.cells
	for g := rowLo; g < rowHi; g++ {
		l, iy := g/ny, g%ny
		row := l*cells + iy*nx
		for ix := (color + iy + l) & 1; ix < nx; ix += 2 {
			i := row + ix
			su := b[i]
			if ix > 0 {
				su += s.gx[i-1] * x[i-1]
			}
			if g := s.gx[i]; g != 0 {
				su += g * x[i+1]
			}
			if iy > 0 {
				su += s.gy[i-nx] * x[i-nx]
			}
			if g := s.gy[i]; g != 0 {
				su += g * x[i+nx]
			}
			if l > 0 {
				su += s.gz[i-cells] * x[i-cells]
			}
			if l < s.nl-1 {
				if g := s.gz[i]; g != 0 {
					su += g * x[i+cells]
				}
			}
			x[i] = su * s.invDiag[i]

			// Residual of the relaxed cell, in residualRows' exact gather
			// order — every neighbor is the opposite color and final.
			v := s.diag[i] * x[i]
			if l > 0 {
				if gz := s.gz[i-cells]; gz != 0 {
					v -= gz * x[i-cells]
				}
			}
			if iy > 0 {
				if gy := s.gy[i-nx]; gy != 0 {
					v -= gy * x[i-nx]
				}
			}
			if ix > 0 {
				if gx := s.gx[i-1]; gx != 0 {
					v -= gx * x[i-1]
				}
			}
			if gx := s.gx[i]; gx != 0 {
				v -= gx * x[i+1]
			}
			if gy := s.gy[i]; gy != 0 {
				v -= gy * x[i+nx]
			}
			if l < s.nl-1 {
				if gz := s.gz[i]; gz != 0 {
					v -= gz * x[i+cells]
				}
			}
			r[i] = b[i] - v
		}
	}
}

// residualColorRows evaluates r = b - A·x at the cells of one color over
// a row band — the trailing half-pass of SmoothResidual.
func (s *stencil) residualColorRows(b, x, r linalg.Vector, color, rowLo, rowHi int) {
	nx, ny, cells := s.nx, s.ny, s.cells
	for g := rowLo; g < rowHi; g++ {
		l, iy := g/ny, g%ny
		row := l*cells + iy*nx
		for ix := (color + iy + l) & 1; ix < nx; ix += 2 {
			i := row + ix
			v := s.diag[i] * x[i]
			if l > 0 {
				if gz := s.gz[i-cells]; gz != 0 {
					v -= gz * x[i-cells]
				}
			}
			if iy > 0 {
				if gy := s.gy[i-nx]; gy != 0 {
					v -= gy * x[i-nx]
				}
			}
			if ix > 0 {
				if gx := s.gx[i-1]; gx != 0 {
					v -= gx * x[i-1]
				}
			}
			if gx := s.gx[i]; gx != 0 {
				v -= gx * x[i+1]
			}
			if gy := s.gy[i]; gy != 0 {
				v -= gy * x[i+nx]
			}
			if l < s.nl-1 {
				if gz := s.gz[i]; gz != 0 {
					v -= gz * x[i+cells]
				}
			}
			r[i] = b[i] - v
		}
	}
}
