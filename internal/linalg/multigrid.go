package linalg

import "fmt"

// Smoother is a level operator of a multigrid hierarchy: besides the plain
// matrix-vector product it supports red-black Gauss-Seidel relaxation
// sweeps, alone or fused with a residual evaluation. Red-black ordering
// makes the sweep independent of cell enumeration order (all cells of one
// color update against a frozen opposite color), which keeps smoothing
// deterministic and lets a sweep split across threads.
type Smoother interface {
	Operator
	// Smooth performs one red-black Gauss-Seidel sweep toward A·x = b.
	// A forward sweep relaxes red then black; reverse relaxes black then
	// red. Pairing a forward pre-smooth with a reverse post-smooth makes
	// the V-cycle a symmetric operator — the property that lets it serve
	// as a CG preconditioner.
	Smooth(b, x Vector, reverse bool)
	// SmoothResidual performs one forward sweep toward A·x = b and
	// computes r = b - A·x for the updated x. It must leave x and r with
	// exactly the bytes a forward Smooth followed by the residual
	// evaluation would produce: an implementation may fuse the two into
	// one pass over the level's memory, but never change the numbers.
	SmoothResidual(b, x, r Vector)
}

// Transfer moves vectors between a fine level and the next coarser one.
// Restrict must be (a scaling of) the transpose of Prolong, or the V-cycle
// stops being symmetric.
type Transfer interface {
	// Restrict projects a fine-level residual onto the coarse level
	// (full weighting), overwriting coarse.
	Restrict(fine, coarse Vector)
	// Prolong interpolates a coarse-level correction and ADDS it into
	// the fine-level iterate (bilinear interpolation).
	Prolong(coarse, fine Vector)
}

// MGLevel is one level of a multigrid hierarchy: its operator plus the
// transfer to the next coarser level (nil on the coarsest).
type MGLevel struct {
	A    Smoother
	Down Transfer
}

// Multigrid runs geometric V-cycles over a prebuilt level hierarchy. All
// per-level scratch (coarse right-hand sides, iterates, residuals) is
// owned by the Multigrid and allocated at construction, so cycles are
// allocation-free. It doubles as a CG Preconditioner: Apply runs one
// V-cycle from a zero initial guess.
//
// Every level is smoothed by one forward sweep on the way down and one
// reverse sweep on the way up, and the coarsest level is solved exactly
// by a banded Cholesky factorization. The exact inverse of an SPD matrix
// is itself a fixed SPD linear map, so the cycle stays a symmetric
// linear operator, which is what makes MG-PCG legitimate. The factor
// reflects the coarsest operator as it was at the last Factor call. A
// Multigrid is not safe for concurrent use.
type Multigrid struct {
	levels []MGLevel
	coarse *bandCholesky // factor of the coarsest level's operator

	b, x, r []Vector // per-level scratch; index 0 of b/x unused
}

// NewMultigrid builds a V-cycle solver over the hierarchy, finest level
// first. The coarsest level's operator must implement Banded. It
// allocates every per-level buffer and the coarsest level's band factor
// up front, and factors that level once.
func NewMultigrid(levels []MGLevel) (*Multigrid, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("linalg: multigrid needs at least one level")
	}
	for i, l := range levels {
		if l.A == nil {
			return nil, fmt.Errorf("linalg: multigrid level %d has no operator", i)
		}
		if (l.Down == nil) != (i == len(levels)-1) {
			return nil, fmt.Errorf("linalg: multigrid level %d transfer mismatch", i)
		}
	}
	coarsest, ok := levels[len(levels)-1].A.(Banded)
	if !ok {
		return nil, fmt.Errorf("linalg: multigrid coarsest level does not expose its band")
	}
	mg := &Multigrid{
		levels: levels,
		coarse: newBandCholesky(coarsest),
		b:      make([]Vector, len(levels)),
		x:      make([]Vector, len(levels)),
		r:      make([]Vector, len(levels)),
	}
	for k, l := range levels {
		n := l.A.Size()
		if k > 0 {
			mg.b[k] = make(Vector, n)
			mg.x[k] = make(Vector, n)
		}
		if k < len(levels)-1 {
			mg.r[k] = make(Vector, n)
		}
	}
	mg.Factor()
	return mg, nil
}

// Levels returns the depth of the hierarchy.
func (mg *Multigrid) Levels() int { return len(mg.levels) }

// Factor refactors the coarsest level from its operator's current band.
// Call it whenever that operator's coefficients change (a solve-dependent
// diagonal, for instance) before the next cycle. It is allocation-free.
// A coarsest operator that is not positive definite (a non-positive or
// NaN pivot) leaves the factor poisoned: cycles then return NaN, which
// CG reports as a CauseNaN *SolveError.
func (mg *Multigrid) Factor() {
	mg.coarse.factor(0)
}

// FactorFrom is Factor for a coarsest operator whose rows before row are
// unchanged since the last factorization: it refactors only rows
// row..n−1, bit-identically to a full Factor. After a factorization that
// met a bad pivot it refactors every row.
func (mg *Multigrid) FactorFrom(row int) {
	mg.coarse.factor(row)
}

// Cycle performs one V-cycle improving x toward A·x = b on the finest
// level. It is allocation-free.
func (mg *Multigrid) Cycle(b, x Vector) { mg.vcycle(0, b, x) }

func (mg *Multigrid) vcycle(k int, b, x Vector) {
	if k == len(mg.levels)-1 {
		// Coarsest level: the exact solve x = A⁻¹·b.
		mg.coarse.solve(b, x)
		return
	}
	a := mg.levels[k].A
	a.SmoothResidual(b, x, mg.r[k])
	down := mg.levels[k].Down
	down.Restrict(mg.r[k], mg.b[k+1])
	mg.x[k+1].Fill(0)
	mg.vcycle(k+1, mg.b[k+1], mg.x[k+1])
	down.Prolong(mg.x[k+1], x)
	a.Smooth(b, x, true)
}

// Apply implements Preconditioner: z ≈ A⁻¹·r via one V-cycle from a zero
// initial guess. The cycle is a fixed symmetric positive-definite linear
// map, so a *Multigrid can be passed as CGOptions.Precond (MG-PCG).
func (mg *Multigrid) Apply(r, z Vector) {
	z.Fill(0)
	mg.vcycle(0, r, z)
}

// ApplyCost implements CostedPreconditioner: one V-cycle performs two
// fine-level smoothing sweeps plus one fine-level residual, each an
// operator-application equivalent (coarser levels add a geometric-series
// fraction that is not itemized). CG folds this into CGResult.Applies so
// MG-PCG's reported work includes the cycles it spends.
func (mg *Multigrid) ApplyCost() int { return 3 }
