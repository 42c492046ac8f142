package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// lap1DLevel is a 1-D conductance-chain Poisson operator with Dirichlet
// walls at both ends, implementing Smoother. Interior edges have
// conductance g; the end cells couple to the walls with conductance wall.
// Rediscretizing on a 2:1-coarsened grid halves g (the cell pitch
// doubles) but keeps wall as is — external couplings are aggregated, not
// stretched — mirroring the rule the thermal hierarchy uses for its
// boundary conductances. At g = wall = 1 the fine level is the classic
// tridiag(-1, 2, -1).
type lap1DLevel struct {
	n    int
	g    float64 // interior edge conductance
	wall float64 // end-cell coupling to the Dirichlet wall
}

func (l lap1DLevel) Size() int { return l.n }

func (l lap1DLevel) diag(i int) float64 {
	d := 2 * l.g
	if i == 0 {
		d += l.wall - l.g
	}
	if i == l.n-1 {
		d += l.wall - l.g
	}
	return d
}

func (l lap1DLevel) Apply(x, y Vector) {
	for i := 0; i < l.n; i++ {
		s := l.diag(i) * x[i]
		if i > 0 {
			s -= l.g * x[i-1]
		}
		if i < l.n-1 {
			s -= l.g * x[i+1]
		}
		y[i] = s
	}
}

// Bandwidth implements Banded: a chain couples only nearest neighbors.
func (l lap1DLevel) Bandwidth() int { return 1 }

// LowerBand implements Banded.
func (l lap1DLevel) LowerBand(i int, row Vector) {
	row[0] = 0
	if i > 0 {
		row[0] = -l.g
	}
	row[1] = l.diag(i)
}

func (l lap1DLevel) Residual(b, x, r Vector) {
	l.Apply(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
}

// SmoothResidual is the unfused reference implementation of the
// Smoother method: a forward Smooth, then the residual.
func (l lap1DLevel) SmoothResidual(b, x, r Vector) {
	l.Smooth(b, x, false)
	l.Residual(b, x, r)
}

func (l lap1DLevel) Smooth(b, x Vector, reverse bool) {
	colors := [2]int{0, 1}
	if reverse {
		colors = [2]int{1, 0}
	}
	for _, color := range colors {
		for i := color; i < l.n; i += 2 {
			s := b[i]
			if i > 0 {
				s += l.g * x[i-1]
			}
			if i < l.n-1 {
				s += l.g * x[i+1]
			}
			x[i] = s / l.diag(i)
		}
	}
}

// lap1DTransfer is the cell-centered 2:1 transfer pair: bilinear
// prolongation with constant fallback at the ends, and its transpose as
// full-weighting restriction.
type lap1DTransfer struct{ nf, nc int }

func (t lap1DTransfer) weights(i int) (p, o int, wo float64) {
	p = i / 2
	o = p + 1
	if i%2 == 0 {
		o = p - 1
	}
	if o < 0 || o >= t.nc {
		return p, -1, 0
	}
	return p, o, 0.25
}

func (t lap1DTransfer) Restrict(fine, coarse Vector) {
	coarse.Fill(0)
	for i := 0; i < t.nf; i++ {
		p, o, wo := t.weights(i)
		coarse[p] += (1 - wo) * fine[i]
		if o >= 0 {
			coarse[o] += wo * fine[i]
		}
	}
}

func (t lap1DTransfer) Prolong(coarse, fine Vector) {
	for i := 0; i < t.nf; i++ {
		p, o, wo := t.weights(i)
		v := (1 - wo) * coarse[p]
		if o >= 0 {
			v += wo * coarse[o]
		}
		fine[i] += v
	}
}

// buildLap1DMG assembles a hierarchy for an n-point 1-D Poisson problem,
// coarsening until 8 points remain.
func buildLap1DMG(t testing.TB, n int) *Multigrid {
	t.Helper()
	var levels []MGLevel
	g := 1.0
	for {
		lv := MGLevel{A: lap1DLevel{n: n, g: g, wall: 1}}
		if n > 8 {
			lv.Down = lap1DTransfer{nf: n, nc: (n + 1) / 2}
		}
		levels = append(levels, lv)
		if n <= 8 {
			break
		}
		n = (n + 1) / 2
		g /= 2
	}
	mg, err := NewMultigrid(levels)
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

// TestMGPreconditionedCG: with a V-cycle as preconditioner, CG must
// converge in far fewer iterations than with Jacobi alone, and reach the
// same answer.
func TestMGPreconditionedCG(t *testing.T) {
	const n = 512
	want := make(Vector, n)
	for i := range want {
		want[i] = float64(i%13) - 6
	}
	op := lap1DLevel{n: n, g: 1, wall: 1}
	b := poissonRHS(n, want)

	xJacobi := make(Vector, n)
	inv := make(Vector, n)
	inv.Fill(0.5)
	resJacobi, err := CGWith(op, b, xJacobi, CGOptions{Tol: 1e-11, Precond: &DiagonalPreconditioner{InvDiag: inv}}, &CGWorkspace{})
	if err != nil {
		t.Fatal(err)
	}
	xMG := make(Vector, n)
	resMG, err := CGWith(op, b, xMG, CGOptions{Tol: 1e-11, Precond: buildLap1DMG(t, n)}, &CGWorkspace{})
	if err != nil {
		t.Fatal(err)
	}
	if resMG.Iterations*5 > resJacobi.Iterations {
		t.Fatalf("MG-PCG took %d iterations vs Jacobi-CG %d — expected at least 5× fewer",
			resMG.Iterations, resJacobi.Iterations)
	}
	// Applies must charge the V-cycle work: K+1 operator applications
	// plus ApplyCost (= 2 sweeps + 1 residual = 3) for each of the K preconditioner
	// applications (one initial, one per completed iteration).
	if want := resMG.Iterations + 1 + 3*resMG.Iterations; resMG.Applies != want {
		t.Fatalf("MG-PCG applies = %d, want %d (V-cycle work must be charged)", resMG.Applies, want)
	}
	for i := range want {
		if !almostEqual(xMG[i], want[i], 1e-6) {
			t.Fatalf("x[%d]=%v want %v", i, xMG[i], want[i])
		}
	}
}

// TestMGPreconditionerSymmetric: the V-cycle must be a symmetric linear
// map (⟨u, M⁻¹v⟩ == ⟨M⁻¹u, v⟩) — the property CG requires of its
// preconditioner, guaranteed by the forward/reverse smoothing pairing,
// transposed transfers and the exact coarsest-level solve, refactored
// before every pair of applications as a solve would.
func TestMGPreconditionerSymmetric(t *testing.T) {
	const n = 96
	mg := buildLap1DMG(t, n)
	rng := rand.New(rand.NewSource(3))
	u := make(Vector, n)
	v := make(Vector, n)
	mu := make(Vector, n)
	mv := make(Vector, n)
	for trial := 0; trial < 5; trial++ {
		for i := 0; i < n; i++ {
			u[i] = rng.NormFloat64()
			v[i] = rng.NormFloat64()
		}
		mg.Factor()
		mg.Apply(u, mu)
		mg.Apply(v, mv)
		left := u.Dot(mv)
		right := mu.Dot(v)
		if math.Abs(left-right) > 1e-9*(math.Abs(left)+math.Abs(right)+1) {
			t.Fatalf("trial %d: V-cycle not symmetric: %g vs %g", trial, left, right)
		}
	}
}

// TestMGCycleZeroAllocs: cycles, preconditioner applications and the
// coarsest level's refactorization must not touch the heap once the
// hierarchy exists.
func TestMGCycleZeroAllocs(t *testing.T) {
	const n = 128
	mg := buildLap1DMG(t, n)
	want := make(Vector, n)
	for i := range want {
		want[i] = float64(i) / 7
	}
	b := poissonRHS(n, want)
	x := make(Vector, n)
	cycle := func() {
		mg.Factor()
		mg.Cycle(b, x)
	}
	cycle() // warm-up
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("V-cycle allocated %.1f times per run, want 0", allocs)
	}
	z := make(Vector, n)
	apply := func() {
		mg.Factor()
		mg.Apply(b, z)
	}
	apply()
	if allocs := testing.AllocsPerRun(20, apply); allocs != 0 {
		t.Fatalf("preconditioner Apply allocated %.1f times per run, want 0", allocs)
	}
}

// TestNewMultigridValidation: malformed hierarchies are rejected.
func TestNewMultigridValidation(t *testing.T) {
	if _, err := NewMultigrid(nil); err == nil {
		t.Fatal("empty hierarchy must error")
	}
	if _, err := NewMultigrid([]MGLevel{{A: lap1DLevel{n: 8, g: 1, wall: 1}, Down: lap1DTransfer{nf: 8, nc: 4}}}); err == nil {
		t.Fatal("coarsest level with a transfer must error")
	}
	if _, err := NewMultigrid([]MGLevel{
		{A: lap1DLevel{n: 8, g: 1, wall: 1}},
		{A: lap1DLevel{n: 4, g: 0.5, wall: 1}},
	}); err == nil {
		t.Fatal("fine level without a transfer must error")
	}
	if _, err := NewMultigrid([]MGLevel{{A: smootherOnly{lap1DLevel{n: 4, g: 1, wall: 1}}}}); err == nil {
		t.Fatal("coarsest level without a band must error")
	}
}

// TestBandCholeskyMatchesDense: the banded factor must solve a banded SPD
// system to the dense LU solution, for a band wider than the chain's and
// for rows whose band starts left of column 0.
func TestBandCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct{ n, w int }{{1, 0}, {9, 1}, {40, 6}, {12, 20}} {
		a := randomBandSPD(rng, c.n, c.w)
		f := newBandCholesky(a)
		f.factor(0)
		b := make(Vector, c.n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := SolveDense(a.d, b)
		if err != nil {
			t.Fatal(err)
		}
		x := make(Vector, c.n)
		f.solve(b, x)
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-12*(math.Abs(want[i])+1) {
				t.Fatalf("n=%d w=%d: x[%d] = %.17g, dense %.17g", c.n, c.w, i, x[i], want[i])
			}
		}
		// In place: b and x may alias.
		f.solve(b, b)
		for i := range b {
			if b[i] != x[i] {
				t.Fatalf("n=%d w=%d: aliased solve differs at %d", c.n, c.w, i)
			}
		}
	}
}

// TestMGNonSPDCoarsestFailsCG: a coarsest level that is not positive
// definite poisons the factor, and CG must report that as a CauseNaN
// *SolveError — never a panic, never a silent answer.
func TestMGNonSPDCoarsestFailsCG(t *testing.T) {
	for _, wall := range []float64{-3, math.NaN()} {
		const n = 32
		op := lap1DLevel{n: n, g: 1, wall: 1}
		mg, err := NewMultigrid([]MGLevel{
			{A: op, Down: lap1DTransfer{nf: n, nc: n / 2}},
			{A: lap1DLevel{n: n / 2, g: 0.5, wall: wall}},
		})
		if err != nil {
			t.Fatal(err)
		}
		b := make(Vector, n)
		b.Fill(1)
		x := make(Vector, n)
		_, err = CGWith(op, b, x, CGOptions{Tol: 1e-10, Precond: mg}, &CGWorkspace{})
		var se *SolveError
		if !errors.As(err, &se) || se.Cause != CauseNaN || !errors.Is(err, ErrNotConverged) {
			t.Fatalf("wall %v: err = %v, want a CauseNaN *SolveError", wall, err)
		}
	}
}

// smootherOnly hides a level's Banded methods.
type smootherOnly struct{ l lap1DLevel }

func (s smootherOnly) Size() int                        { return s.l.Size() }
func (s smootherOnly) Apply(x, y Vector)                { s.l.Apply(x, y) }
func (s smootherOnly) Smooth(b, x Vector, reverse bool) { s.l.Smooth(b, x, reverse) }
func (s smootherOnly) SmoothResidual(b, x, r Vector)    { s.l.SmoothResidual(b, x, r) }

// bandDense is a dense symmetric matrix exposed through Banded.
type bandDense struct {
	d *Dense
	w int
}

func (a bandDense) Size() int         { return a.d.Rows }
func (a bandDense) Apply(x, y Vector) { a.d.MulVec(x, y) }
func (a bandDense) Bandwidth() int    { return a.w }
func (a bandDense) LowerBand(i int, row Vector) {
	for k := range row {
		row[k] = 0
		if j := i - a.w + k; j >= 0 {
			row[k] = a.d.At(i, j)
		}
	}
}

// randomBandSPD draws a symmetric, strictly diagonally dominant (hence
// SPD) n×n matrix with half-bandwidth w.
func randomBandSPD(rng *rand.Rand, n, w int) bandDense {
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := max(0, i-w); j < i; j++ {
			v := rng.Float64() - 0.5
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			if j != i {
				s += math.Abs(d.At(i, j))
			}
		}
		d.Set(i, i, s+1+rng.Float64())
	}
	return bandDense{d: d, w: w}
}
