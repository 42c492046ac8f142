package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// FuzzStencilKernels checks every stencil row kernel and both grid
// transfers against the gather kernels they replaced (kept below), bit
// for bit, on random grids: one to five layers, odd and even widths, a
// share of interior conductances zero besides the zero edge ones, finite
// x with some exact zeros of either sign, run whole and banded across a
// team of two. The one case where bits may differ is a −0 sum: the old
// kernels skipped a zero term, the new ones add 0·x, and −0 + 0 is +0.
// A sign of zero can only ever reach other zeros, so such outputs compare
// equal as numbers.
func FuzzStencilKernels(f *testing.F) {
	for _, c := range []struct {
		seed       int64
		nx, ny, nl uint8
	}{
		{1, 19, 15, 5}, {2, 10, 8, 5}, {3, 5, 4, 2}, {4, 3, 2, 1}, {5, 4, 4, 2},
		{6, 1, 1, 1}, {7, 6, 1, 3}, {8, 1, 7, 2}, {9, 2, 2, 5}, {10, 7, 3, 1},
	} {
		f.Add(c.seed, c.nx, c.ny, c.nl)
	}
	f.Fuzz(func(t *testing.T, seed int64, nx8, ny8, nl8 uint8) {
		// Each size maps onto 1..max, taking the seeds' values as they are.
		dim := func(v uint8, max int) int { return 1 + (int(v)+max-1)%max }
		nx, ny, nl := dim(nx8, 24), dim(ny8, 24), dim(nl8, 5)
		rng := rand.New(rand.NewSource(seed))
		s := randomStencil(rng, nx, ny, nl)
		b, x0 := randomVector(rng, s.n), randomVector(rng, s.n)
		rows := nl * ny
		name := fmt.Sprintf("%dx%dx%d seed %d", nx, ny, nl, seed)

		want := make(linalg.Vector, s.n)
		s.refApplyRows(x0, want, 0, rows)
		wantR := make(linalg.Vector, s.n)
		s.refResidualRows(b, x0, wantR, 0, rows)
		for _, red := range []bool{true, false} { // a forward and a reverse sweep
			wantX := x0.Clone()
			c0, c1 := 0, 1
			if !red {
				c0, c1 = 1, 0
			}
			s.refSmoothRows(b, wantX, c0, 0, rows)
			s.refSmoothRows(b, wantX, c1, 0, rows)
			for workers := 1; workers <= 2; workers++ {
				got := x0.Clone()
				runStencil(s, jobSmooth, b, got, nil, c0, workers)
				runStencil(s, jobSmooth, b, got, nil, c1, workers)
				sameKernelBits(t, fmt.Sprintf("%s smooth %d→%d, %d workers", name, c0, c1, workers), got, wantX)
			}
		}
		wantX, wantSR := x0.Clone(), make(linalg.Vector, s.n)
		s.refSmoothRows(b, wantX, 0, 0, rows)
		s.refSmoothResidualRows(b, wantX, wantSR, 1, 0, rows)
		s.refResidualColorRows(b, wantX, wantSR, 0, 0, rows)
		for workers := 1; workers <= 2; workers++ {
			got := make(linalg.Vector, s.n)
			runStencil(s, jobApply, nil, x0, got, 0, workers)
			sameKernelBits(t, fmt.Sprintf("%s apply, %d workers", name, workers), got, want)
			runStencil(s, jobResidual, b, x0, got, 0, workers)
			sameKernelBits(t, fmt.Sprintf("%s residual, %d workers", name, workers), got, wantR)
			x, r := x0.Clone(), make(linalg.Vector, s.n)
			runStencil(s, jobSmooth, b, x, nil, 0, workers)
			runStencil(s, jobSmoothResidual, b, x, r, 1, workers)
			runStencil(s, jobResidualColor, b, x, r, 0, workers)
			sameKernelBits(t, fmt.Sprintf("%s smooth-residual iterate, %d workers", name, workers), x, wantX)
			sameKernelBits(t, fmt.Sprintf("%s smooth-residual residual, %d workers", name, workers), r, wantSR)
		}

		c, tr := coarsen(s)
		ref := newRefTransfer(s, tr)
		wantC := make(linalg.Vector, c.n)
		ref.refRestrictLayers(x0, wantC, 0, nl)
		xc := randomVector(rng, c.n)
		wantF := x0.Clone()
		ref.refProlongRows(xc, wantF, 0, rows)
		for workers := 1; workers <= 2; workers++ {
			got := make(linalg.Vector, c.n)
			for w := 0; w < workers; w++ {
				(&transferJob{t: tr, mode: jobRestrict, src: x0, dst: got}).Do(w, workers)
			}
			sameKernelBits(t, fmt.Sprintf("%s restrict, %d workers", name, workers), got, wantC)
			gotF := x0.Clone()
			for w := 0; w < workers; w++ {
				(&transferJob{t: tr, mode: jobProlong, src: xc, dst: gotF}).Do(w, workers)
			}
			sameKernelBits(t, fmt.Sprintf("%s prolong, %d workers", name, workers), gotF, wantF)
		}
	})
}

// runStencil runs one stencil pass the way a team of the given width
// does: every worker's band in turn, all of them before the next pass.
func runStencil(s *stencil, mode int, b, x, y linalg.Vector, color, workers int) {
	j := stencilJob{s: s, mode: mode, b: b, x: x, y: y, color: color}
	for w := 0; w < workers; w++ {
		j.Do(w, workers)
	}
}

// randomStencil returns an nx×ny×nl stencil with conductances in
// [0.1, 10), a fifth of them zero, zero on the grid's edges as the
// representation requires, and a diagonal dominating their sum.
func randomStencil(rng *rand.Rand, nx, ny, nl int) *stencil {
	cells := nx * ny
	s := &stencil{nx: nx, ny: ny, nl: nl, cells: cells, n: cells * nl, zero: make([]float64, cells)}
	g := func() float64 {
		if rng.Intn(5) == 0 {
			return 0
		}
		return 0.1 + 9.9*rng.Float64()
	}
	gxw := make([]float64, s.n+1)
	s.gw, s.gx, s.gy = gxw[:s.n], gxw[1:], make([]float64, s.n)
	s.gz = make([]float64, (nl-1)*cells)
	for i := range s.gx {
		if c := i % cells; c%nx != nx-1 {
			s.gx[i] = g()
		}
		if c := i % cells; c < cells-nx {
			s.gy[i] = g()
		}
	}
	for i := range s.gz {
		s.gz[i] = g()
	}
	s.diag = baseDiagOf(s)
	s.invDiag = make(linalg.Vector, s.n)
	for i := range s.diag {
		s.diag[i] += 0.5 + rng.Float64()
		s.invDiag[i] = 1 / s.diag[i]
	}
	return s
}

// randomVector returns finite values of either sign spanning a few
// decades, a tenth of them an exact zero of random sign.
func randomVector(rng *rand.Rand, n int) linalg.Vector {
	v := make(linalg.Vector, n)
	for i := range v {
		switch rng.Intn(10) {
		case 0:
			v[i] = math.Copysign(0, rng.Float64()-0.5)
		default:
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return v
}

// sameKernelBits fails unless got and want agree bit for bit, zeros of
// either sign aside (see FuzzStencilKernels).
func sameKernelBits(t *testing.T, what string, got, want linalg.Vector) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] == 0 && want[i] == 0) {
			t.Fatalf("%s: element %d is %v (%#x), the gather kernel gives %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// refTransfer is the grid transfer as it was stored before the weight
// products: the directional weights, and -1 for an edge cell's missing
// other coarse cell.
type refTransfer struct {
	nxf, nyf, nl int
	cellsF       int
	nxc, nyc     int
	cellsC       int
	xm, ym       axisMap
	wx, wy       []float64
}

func newRefTransfer(fine *stencil, t *transfer) *refTransfer {
	edges := func(m axisMap) axisMap {
		o := append([]int(nil), m.other...)
		for i := range o {
			if o[i] == m.parent[i] {
				o[i] = -1
			}
		}
		return axisMap{parent: m.parent, other: o}
	}
	r := &refTransfer{
		nxf: t.nxf, nyf: t.nyf, nl: t.nl, cellsF: t.cellsF,
		nxc: t.nxc, nyc: t.nyc, cellsC: t.cellsC,
		xm: edges(t.xm), ym: edges(t.ym),
	}
	r.wx, r.wy = sideWeights(fine, t.xm, t.ym)
	return r
}

// The gather kernels the branch-free ones replaced, verbatim.

func (s *stencil) refApplyRows(x, y linalg.Vector, rowLo, rowHi int) {
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

func (s *stencil) refResidualRows(b, x, r linalg.Vector, rowLo, rowHi int) {
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

func (s *stencil) refSmoothRows(b, x linalg.Vector, color, rowLo, rowHi int) {
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

func (s *stencil) refSmoothResidualRows(b, x, r linalg.Vector, color, rowLo, rowHi int) {
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

func (s *stencil) refResidualColorRows(b, x, r linalg.Vector, color, rowLo, rowHi int) {
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

func (t *refTransfer) refRestrictLayers(fine, coarse linalg.Vector, lLo, lHi int) {
	coarse[lLo*t.cellsC : lHi*t.cellsC].Fill(0)
	for l := lLo; l < lHi; l++ {
		baseF := l * t.cellsF
		baseC := l * t.cellsC
		for iy := 0; iy < t.nyf; iy++ {
			py, oy := t.ym.parent[iy], t.ym.other[iy]
			rowP := baseC + py*t.nxc
			rowO := baseC + oy*t.nxc
			rowF := baseF + iy*t.nxf
			for ix := 0; ix < t.nxf; ix++ {
				i := rowF + ix
				px, ox := t.xm.parent[ix], t.xm.other[ix]
				wx, wy := t.wx[i], t.wy[i]
				wpx, wpy := 1-wx, 1-wy
				v := fine[i]
				coarse[rowP+px] += wpx * wpy * v
				if ox >= 0 {
					coarse[rowP+ox] += wx * wpy * v
				}
				if oy >= 0 {
					coarse[rowO+px] += wpx * wy * v
					if ox >= 0 {
						coarse[rowO+ox] += wx * wy * v
					}
				}
			}
		}
	}
}

func (t *refTransfer) refProlongRows(coarse, fine linalg.Vector, rowLo, rowHi int) {
	for g := rowLo; g < rowHi; g++ {
		l, iy := g/t.nyf, g%t.nyf
		baseC := l * t.cellsC
		py, oy := t.ym.parent[iy], t.ym.other[iy]
		rowP := baseC + py*t.nxc
		rowO := baseC + oy*t.nxc
		rowF := l*t.cellsF + iy*t.nxf
		for ix := 0; ix < t.nxf; ix++ {
			i := rowF + ix
			px, ox := t.xm.parent[ix], t.xm.other[ix]
			wx, wy := t.wx[i], t.wy[i]
			wpx, wpy := 1-wx, 1-wy
			v := wpx * wpy * coarse[rowP+px]
			if ox >= 0 {
				v += wx * wpy * coarse[rowP+ox]
			}
			if oy >= 0 {
				v += wpx * wy * coarse[rowO+px]
				if ox >= 0 {
					v += wx * wy * coarse[rowO+ox]
				}
			}
			fine[i] += v
		}
	}
}
