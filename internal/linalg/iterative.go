package linalg

import (
	"math"
)

// Operator is an abstract square linear operator y = A·x. Implementations
// must not retain x or y.
type Operator interface {
	// Apply computes y = A·x. len(x) == len(y) == Size().
	Apply(x, y Vector)
	// Size returns the dimension of the operator.
	Size() int
}

// Preconditioner approximates z = M⁻¹·r for a matrix M ≈ A. For use
// inside CG the approximation must be symmetric positive definite and a
// fixed linear map (no convergence-dependent iteration counts), otherwise
// the Krylov recurrence loses its orthogonality guarantees.
// Implementations must not retain r or z.
type Preconditioner interface {
	// Apply computes z = M⁻¹ · r. len(r) == len(z).
	Apply(r, z Vector)
}

// CostedPreconditioner is optionally implemented by preconditioners whose
// Apply performs operator-equivalent work on the solver's grid (a
// multigrid V-cycle's smoothing sweeps and residual, for instance). CG
// adds ApplyCost to CGResult.Applies for every preconditioner
// application, which keeps Applies an honest cross-solver work measure
// instead of hiding the preconditioner's dominant cost. Lightweight
// preconditioners (a diagonal scale) need not implement it.
type CostedPreconditioner interface {
	Preconditioner
	// ApplyCost returns the fine-grid operator-application equivalents
	// one Apply costs.
	ApplyCost() int
}

// DiagonalPreconditioner applies z = D^-1·r for a diagonal D.
type DiagonalPreconditioner struct {
	InvDiag Vector
}

// Apply computes z = D^-1 · r element-wise.
func (p *DiagonalPreconditioner) Apply(r, z Vector) {
	for i, d := range p.InvDiag {
		z[i] = r[i] * d
	}
}

// CGOptions configures the conjugate-gradient solver.
type CGOptions struct {
	// Tol is the relative residual tolerance ‖r‖/‖b‖. Default 1e-9.
	Tol float64
	// MaxIter caps CG iterations. Default 10·n.
	MaxIter int
	// Precond, if non-nil, is applied as a left preconditioner. It must
	// be SPD; *DiagonalPreconditioner and *Multigrid both qualify.
	Precond Preconditioner
}

// CGResult reports convergence statistics.
type CGResult struct {
	Iterations int
	Residual   float64 // final relative residual
	// Applies counts fine-grid operator applications, including the
	// operator-equivalent work a CostedPreconditioner reports — the
	// resolution-independent work unit that lets benchmarks compare
	// solvers by effort rather than wall time. Plain CG charges one
	// initial residual plus one per iteration; MG-PCG additionally
	// charges each V-cycle's smoothing sweeps and residual (coarser-level
	// work is a geometric-series fraction (~⅓) on top and is not
	// itemized).
	Applies int
}

// CGWorkspace holds the scratch vectors one conjugate-gradient solve
// needs. A zero value is ready to use: the buffers are grown on first use
// and reused afterwards, so repeated solves of the same size perform no
// allocations. A workspace is not safe for concurrent use.
//
// A workspace optionally carries a worker Team: with one set, the fused
// vector kernels of every solve fan out across the team. Thread count is
// a pure performance knob — the chunked reductions in par.go make the
// solve byte-identical at any team width, including the nil (serial)
// team.
type CGWorkspace struct {
	r, z, p, ap Vector

	team    *Team
	partial Vector // reduction chunk partials

	// Persistent task adapters: the solver writes their fields and submits
	// the same pointers each iteration, so dispatch never allocates.
	dotT   dotTask
	fusedT fusedTask
	jacT   jacobiTask
	xpbyT  xpbyTask
}

// NewCGWorkspace returns a workspace pre-sized for operators of dimension n.
func NewCGWorkspace(n int) *CGWorkspace {
	ws := &CGWorkspace{}
	ws.grow(n)
	return ws
}

// SetTeam attaches the worker team the fused CG kernels dispatch on (nil
// = serial). The workspace borrows the team; the caller owns its
// lifecycle.
func (ws *CGWorkspace) SetTeam(t *Team) { ws.team = t }

// grow resizes every scratch vector to length n, reusing capacity.
func (ws *CGWorkspace) grow(n int) {
	resize := func(v Vector) Vector {
		if cap(v) < n {
			return make(Vector, n)
		}
		return v[:n]
	}
	ws.r = resize(ws.r)
	ws.z = resize(ws.z)
	ws.p = resize(ws.p)
	ws.ap = resize(ws.ap)
	if chunks := redChunks(n); cap(ws.partial) < chunks {
		ws.partial = make(Vector, chunks)
	} else {
		ws.partial = ws.partial[:chunks]
	}
}

// run dispatches a kernel task over n elements: across the team when the
// problem is big enough to pay for the barrier, inline otherwise. The
// size gate depends only on n, so it cannot affect results.
func (ws *CGWorkspace) run(tk Task, n int) {
	if n < ParMin {
		tk.Do(0, 1)
		return
	}
	ws.team.Run(tk)
}

// dot returns a·b via the fixed-chunk deterministic reduction.
func (ws *CGWorkspace) dot(a, b Vector) float64 {
	ws.dotT = dotTask{a: a, b: b, partial: ws.partial}
	ws.run(&ws.dotT, len(a))
	return reduceTree(ws.partial[:redChunks(len(a))])
}

// fusedUpdate applies x += α·p, r -= α·q and returns the new ‖r‖².
func (ws *CGWorkspace) fusedUpdate(x, r, p, q Vector, alpha float64) float64 {
	ws.fusedT = fusedTask{x: x, r: r, p: p, q: q, partial: ws.partial, alpha: alpha}
	ws.run(&ws.fusedT, len(x))
	return reduceTree(ws.partial[:redChunks(len(x))])
}

// jacobiDot applies z = D⁻¹·r and returns r·z in the same pass.
func (ws *CGWorkspace) jacobiDot(r, invDiag, z Vector) float64 {
	ws.jacT = jacobiTask{r: r, invDiag: invDiag, z: z, partial: ws.partial}
	ws.run(&ws.jacT, len(r))
	return reduceTree(ws.partial[:redChunks(len(r))])
}

// xpby applies p = z + β·p.
func (ws *CGWorkspace) xpby(p, z Vector, beta float64) {
	ws.xpbyT = xpbyTask{p: p, z: z, beta: beta}
	ws.run(&ws.xpbyT, len(p))
}

// CG solves A·x = b for a symmetric positive-definite operator using the
// (optionally Jacobi-preconditioned) conjugate-gradient method. x is used
// as the initial guess and is updated in place.
func CG(a Operator, b, x Vector, opt CGOptions) (CGResult, error) {
	return CGWith(a, b, x, opt, &CGWorkspace{})
}

// CGWith is CG with caller-owned scratch: all intermediate vectors live in
// ws, so a reused workspace makes the solve allocation-free, and the ws
// team (SetTeam) parallelizes the vector work.
//
// The iteration body runs on fused kernels to cut memory traffic: the
// x/r updates and the new residual norm share one pass (fusedUpdate), and
// a diagonal preconditioner's application is fused with the r·z inner
// product the recurrence needs next (jacobiDot). Every reduction uses the
// fixed-chunk, fixed-order scheme of par.go, so the iterates — and hence
// the solution — are byte-identical at any team width, including none.
func CGWith(a Operator, b, x Vector, opt CGOptions, ws *CGWorkspace) (CGResult, error) {
	n := a.Size()
	if opt.Tol <= 0 {
		opt.Tol = 1e-9
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	bNorm := b.Norm2()
	if bNorm == 0 {
		x.Fill(0)
		return CGResult{Iterations: 0, Residual: 0}, nil
	}

	precondCost := 0
	if cp, ok := opt.Precond.(CostedPreconditioner); ok {
		precondCost = cp.ApplyCost()
	}
	// A diagonal preconditioner takes the fused apply+dot path; any other
	// preconditioner (a multigrid V-cycle) applies as an opaque operator.
	diag, _ := opt.Precond.(*DiagonalPreconditioner)
	ws.grow(n)
	r, z, p, ap := ws.r, ws.z, ws.p, ws.ap
	a.Apply(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	res := CGResult{Applies: 1}
	// The residual norm is computed exactly once per residual state: here
	// for the initial guess, then once after each update inside the loop —
	// the convergence check rides on the norm the update just produced
	// instead of recomputing it at the top of the next iteration.
	res.Residual = r.Norm2() / bNorm
	if badFloat(res.Residual) {
		// NaN/Inf before the first iteration: the initial guess (typically
		// a warm-start seed) or b itself is poisoned.
		return res, failure("cg", CauseNaN, res)
	}
	if res.Residual < opt.Tol {
		return res, nil
	}
	var rz float64
	switch {
	case diag != nil:
		rz = ws.jacobiDot(r, diag.InvDiag, z)
		res.Applies += precondCost
	case opt.Precond != nil:
		opt.Precond.Apply(r, z)
		res.Applies += precondCost
		rz = ws.dot(r, z)
	default:
		// Identity preconditioner: z aliases r, skipping the copy.
		z = r
		rz = ws.dot(r, r)
	}
	copy(p, z)

	for k := 0; k < opt.MaxIter; k++ {
		a.Apply(p, ap)
		res.Applies++
		pap := ws.dot(p, ap)
		if badFloat(pap) {
			// A NaN/Inf reached the recurrence (overflow, or a poisoned
			// preconditioner output last iteration); the iterate is unusable.
			return res, failure("cg", CauseNaN, res)
		}
		if pap <= 0 {
			// Operator is not SPD along p; bail out with the current iterate.
			return res, failure("cg", CauseBreakdown, res)
		}
		alpha := rz / pap
		rNormSq := ws.fusedUpdate(x, r, p, ap, alpha)
		res.Iterations = k + 1
		res.Residual = math.Sqrt(rNormSq) / bNorm
		if badFloat(res.Residual) {
			return res, failure("cg", CauseNaN, res)
		}
		if res.Residual < opt.Tol {
			return res, nil
		}
		var rzNew float64
		switch {
		case diag != nil:
			rzNew = ws.jacobiDot(r, diag.InvDiag, z)
		case opt.Precond != nil:
			opt.Precond.Apply(r, z)
			res.Applies += precondCost
			rzNew = ws.dot(r, z)
		default:
			// z aliases r, so r·z is the ‖r‖² the fused update already
			// reduced — the dot pass disappears entirely.
			rzNew = rNormSq
		}
		beta := rzNew / rz
		rz = rzNew
		ws.xpby(p, z, beta)
	}
	return res, failure("cg", CauseMaxIter, res)
}

// SOROptions configures the successive-over-relaxation solver.
type SOROptions struct {
	// Omega is the relaxation factor in (0,2). Default 1.6.
	Omega float64
	// Tol is the relative update tolerance. Default 1e-8.
	Tol float64
	// MaxIter caps sweeps. Default 20·sqrt(n)+200.
	MaxIter int
}

// StencilSweeper is implemented by operators that support in-place
// Gauss-Seidel/SOR sweeps (the structured thermal grid does).
type StencilSweeper interface {
	Operator
	// SweepSOR performs one SOR sweep updating x toward A·x = b and
	// returns the maximum absolute update applied.
	SweepSOR(b, x Vector, omega float64) float64
}

// SOR solves A·x = b by successive over-relaxation for operators that
// provide sweeps. x is the initial guess, updated in place. The sweeps
// work entirely inside x, so the solve needs no scratch workspace and is
// allocation-free by construction.
func SOR(a StencilSweeper, b, x Vector, opt SOROptions) (CGResult, error) {
	if opt.Omega <= 0 || opt.Omega >= 2 {
		opt.Omega = 1.6
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 20*int(math.Sqrt(float64(a.Size()))) + 200
	}
	scale := b.NormInf()
	if scale == 0 {
		scale = 1
	}
	var res CGResult
	for k := 0; k < opt.MaxIter; k++ {
		res.Iterations = k + 1
		res.Applies = res.Iterations // one sweep costs one operator pass
		delta := a.SweepSOR(b, x, opt.Omega)
		res.Residual = delta / scale
		if badFloat(res.Residual) {
			return res, failure("sor", CauseNaN, res)
		}
		if res.Residual < opt.Tol {
			return res, nil
		}
	}
	return res, failure("sor", CauseMaxIter, res)
}

// Bisect finds a root of f in [lo, hi] assuming f(lo) and f(hi) bracket a
// sign change. It returns the midpoint after the interval shrinks below tol
// or maxIter iterations. If the interval does not bracket a root, the
// endpoint with the smaller |f| is returned and ok is false.
func Bisect(f func(float64) float64, lo, hi, tol float64, maxIter int) (root float64, ok bool) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, true
	}
	if fhi == 0 {
		return hi, true
	}
	if flo*fhi > 0 {
		// No sign change: report the endpoint closest to a root (smallest
		// |f|, lo on ties) so callers still get the best available guess.
		if math.Abs(flo) <= math.Abs(fhi) {
			return lo, false
		}
		return hi, false
	}
	for i := 0; i < maxIter && hi-lo > tol; i++ {
		mid := 0.5 * (lo + hi)
		fm := f(mid)
		if fm == 0 {
			return mid, true
		}
		if flo*fm < 0 {
			hi = mid
		} else {
			lo, flo = mid, fm
		}
	}
	return 0.5 * (lo + hi), true
}
