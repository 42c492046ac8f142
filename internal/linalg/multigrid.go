package linalg

import "fmt"

// Smoother is a level operator of a multigrid hierarchy: besides the plain
// matrix-vector product it supports red-black Gauss-Seidel relaxation
// sweeps and residual evaluation. Red-black ordering makes the sweep
// independent of cell enumeration order (all cells of one color update
// against a frozen opposite color), which keeps smoothing deterministic
// and leaves the door open to parallel sweeps later.
type Smoother interface {
	Operator
	// Smooth performs one red-black Gauss-Seidel sweep toward A·x = b.
	// A forward sweep relaxes red then black; reverse relaxes black then
	// red. Pairing a forward pre-smooth with a reverse post-smooth makes
	// the V-cycle a symmetric operator — the property that lets it serve
	// as a CG preconditioner.
	Smooth(b, x Vector, reverse bool)
	// Residual computes r = b - A·x.
	Residual(b, x, r Vector)
}

// FusedSmoother is optionally implemented by level operators that can run
// a forward Smooth and the trailing Residual as one fused, temporally
// blocked pass over the grid. The contract is strict bit-equality: for any
// (b, x), SmoothResidual must leave x and r with exactly the bytes that
//
//	A.Smooth(b, x, false); A.Residual(b, x, r)
//
// would produce — fusion is a pure memory-traffic optimization (the field
// and coefficients are streamed once less), never a numerical variant. The
// V-cycle uses it for the pre-smooth/residual pair on every level that
// provides it.
type FusedSmoother interface {
	Smoother
	// SmoothResidual performs one forward red-black sweep toward A·x = b
	// and computes r = b - A·x for the updated x, in one fused pass.
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
// With Pre == Post the cycle is a symmetric linear operator (forward
// pre-smooth, symmetric coarse solve, reverse post-smooth), which is what
// makes MG-PCG legitimate. A Multigrid is not safe for concurrent use.
type Multigrid struct {
	levels []MGLevel
	// Pre and Post are the smoothing sweep counts per level (default 1
	// and 1). Keep them equal to preserve cycle symmetry.
	Pre, Post int
	// CoarseSweeps is the number of symmetric (forward+reverse) sweep
	// pairs used to solve the coarsest level (default 32). A fixed count
	// keeps the cycle a fixed linear map.
	CoarseSweeps int

	b, x, r []Vector // per-level scratch; index 0 of b/x unused
}

// NewMultigrid builds a V-cycle solver over the hierarchy, finest level
// first. It allocates every per-level buffer up front.
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
	mg := &Multigrid{
		levels:       levels,
		Pre:          1,
		Post:         1,
		CoarseSweeps: 32,
		b:            make([]Vector, len(levels)),
		x:            make([]Vector, len(levels)),
		r:            make([]Vector, len(levels)),
	}
	for k, l := range levels {
		n := l.A.Size()
		if k > 0 {
			mg.b[k] = make(Vector, n)
			mg.x[k] = make(Vector, n)
		}
		mg.r[k] = make(Vector, n)
	}
	return mg, nil
}

// Levels returns the depth of the hierarchy.
func (mg *Multigrid) Levels() int { return len(mg.levels) }

// Cycle performs one V-cycle improving x toward A·x = b on the finest
// level. It is allocation-free.
func (mg *Multigrid) Cycle(b, x Vector) { mg.vcycle(0, b, x) }

func (mg *Multigrid) vcycle(k int, b, x Vector) {
	a := mg.levels[k].A
	if k == len(mg.levels)-1 {
		// Coarsest level: symmetric sweep pairs stand in for a direct
		// solve — the grid is small enough that this is exhaustive.
		for s := 0; s < mg.CoarseSweeps; s++ {
			a.Smooth(b, x, false)
			a.Smooth(b, x, true)
		}
		return
	}
	// Pre-smooth, with the last forward sweep fused into the residual
	// evaluation when the level supports it (bit-identical by the
	// FusedSmoother contract, one less pass over the level's memory).
	if fa, ok := a.(FusedSmoother); ok && mg.Pre >= 1 {
		for s := 0; s < mg.Pre-1; s++ {
			a.Smooth(b, x, false)
		}
		fa.SmoothResidual(b, x, mg.r[k])
	} else {
		for s := 0; s < mg.Pre; s++ {
			a.Smooth(b, x, false)
		}
		a.Residual(b, x, mg.r[k])
	}
	down := mg.levels[k].Down
	down.Restrict(mg.r[k], mg.b[k+1])
	mg.x[k+1].Fill(0)
	mg.vcycle(k+1, mg.b[k+1], mg.x[k+1])
	down.Prolong(mg.x[k+1], x)
	for s := 0; s < mg.Post; s++ {
		a.Smooth(b, x, true)
	}
}

// Apply implements Preconditioner: z ≈ A⁻¹·r via one V-cycle from a zero
// initial guess. The cycle is a fixed symmetric positive-definite linear
// map, so a *Multigrid can be passed as CGOptions.Precond (MG-PCG).
func (mg *Multigrid) Apply(r, z Vector) {
	z.Fill(0)
	mg.vcycle(0, r, z)
}

// ApplyCost implements CostedPreconditioner: one V-cycle performs Pre +
// Post fine-level smoothing sweeps plus one fine-level residual, each an
// operator-application equivalent (coarser levels add a geometric-series
// fraction that is not itemized). CG folds this into CGResult.Applies so
// MG-PCG's reported work includes the cycles it spends.
func (mg *Multigrid) ApplyCost() int { return mg.Pre + mg.Post + 1 }
