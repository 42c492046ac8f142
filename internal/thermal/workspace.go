package thermal

import (
	"fmt"
	"runtime"

	"repro/internal/linalg"
)

// Workspace owns every per-solve buffer a Model needs — the operator
// diagonal and its inverse, the right-hand side, the CG scratch vectors, a
// reusable top-boundary buffer, and one field buffer — so that repeated
// solves on the same model perform no allocations. The buffers are fully
// overwritten by each solve, except the layers of the operator diagonal
// (and of the multigrid ladder built from it) that the solve would
// rewrite with the same bits (see fill); a reused workspace carries no
// numerical state between calls (warm starting is the caller's choice via
// the init/prev field arguments), so a reused workspace solves
// bit-identically to a fresh one.
//
// A workspace is bound to one model and is NOT safe for concurrent use;
// give each goroutine (e.g. each sweep worker) its own.
type Workspace struct {
	m   *Model
	op  stencil
	pre linalg.DiagonalPreconditioner
	rhs linalg.Vector
	cg  linalg.CGWorkspace

	// solver selects the linear solver; hier is the multigrid ladder the
	// MG-PCG solver uses, built lazily on its first solve (the default CG
	// path never pays for it).
	solver Solver
	hier   *hierarchy

	// filled reports that op's diagonal has been assembled, last with the
	// capacitive term fillCap; dirty is the first layer whose diagonal
	// changed since hier's last refresh (see fill).
	filled  bool
	fillCap float64
	dirty   int

	// team is the intra-solve worker team SetThreads owns; threads is the
	// configured width (0 = never set, serial).
	team    *linalg.Team
	threads int

	stats SolveStats

	bc TopBoundary
	a  *Field
}

// NewWorkspace returns a workspace sized for the model. The field,
// boundary, and CG buffers are allocated lazily on first use, so a
// workspace built only to run one solve allocates only what that solve
// needs.
func (m *Model) NewWorkspace() *Workspace {
	w := &Workspace{m: m}
	w.op = m.newStencil()
	w.pre = linalg.DiagonalPreconditioner{InvDiag: w.op.invDiag}
	w.rhs = make(linalg.Vector, m.n)
	return w
}

// Model returns the model the workspace solves on.
func (w *Workspace) Model() *Model { return w.m }

// SetSolver selects the linear solver for subsequent solves. The zero
// value SolverCG is the historical Jacobi-CG path; SolverMGPCG routes
// through the geometric multigrid hierarchy, which is built once on first
// use and reused (allocation-free) afterwards. Selecting SolverCG
// releases the hierarchy, so a workspace lent to MG-PCG for a while
// keeps no ladder it will not use.
func (w *Workspace) SetSolver(s Solver) {
	w.solver = s
	if s != SolverMGPCG {
		w.hier = nil
	}
}

// Solver returns the linear solver the workspace solves with.
func (w *Workspace) Solver() Solver { return w.solver }

// SetThreads sets the intra-solve thread count: the stencil kernels, the
// multigrid transfers and the fused CG vector ops of every subsequent
// solve fan out across a persistent worker team of this width (n <= 0
// selects GOMAXPROCS). Thread count is a pure performance knob — solves
// are byte-identical at any setting, enforced by the fixed-band
// partitioning and fixed-chunk reductions in linalg. The workspace owns
// the team: call Close (or SetThreads(1)) to release its goroutines.
func (w *Workspace) SetThreads(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n == w.threads {
		return
	}
	w.team.Close()
	w.team = linalg.NewTeam(n)
	w.threads = n
	w.wireTeam()
}

// Threads returns the configured intra-solve thread count (1 when never
// set or closed).
func (w *Workspace) Threads() int {
	if w.threads <= 0 {
		return 1
	}
	return w.threads
}

// Close releases the workspace's worker team. The workspace stays usable
// afterwards — solves simply run serially (with identical results).
// Close is idempotent: a second Close finds a nil team and is a no-op.
func (w *Workspace) Close() {
	w.team.Close()
	w.team = nil
	w.threads = 0
	w.wireTeam()
}

// wireTeam points every kernel owner at the current team.
func (w *Workspace) wireTeam() {
	w.op.setTeam(w.team)
	w.cg.SetTeam(w.team)
	if w.hier != nil {
		w.hier.setTeam(w.team)
	}
}

// Stats returns cumulative linear-solver effort since the workspace was
// created.
func (w *Workspace) Stats() SolveStats { return w.stats }

// ensureHierarchy lazily builds the multigrid ladder over the
// workspace's operator stencil.
func (w *Workspace) ensureHierarchy() error {
	if w.hier != nil {
		return nil
	}
	h, err := newHierarchy(w.m, &w.op)
	if err != nil {
		return err
	}
	h.setTeam(w.team)
	w.hier = h
	w.dirty = 0
	return nil
}

// fill assembles the operator diagonal for bc and the capacitive term
// capOverDt (0 for steady solves). Only the top layer's diagonal depends
// on the boundary, and every layer's on C/dt, so a fill at the C/dt of
// the previous one rewrites the top layer alone: a coupled steady pass
// or a transient step at a fixed dt. dirty remembers the lowest layer
// rewritten since the hierarchy last caught up.
func (w *Workspace) fill(bc TopBoundary, capOverDt float64) {
	from := 0
	if w.filled && capOverDt == w.fillCap {
		from = w.m.nl - 1
	}
	w.m.fillOperator(&w.op, bc, capOverDt, from)
	w.filled, w.fillCap = true, capOverDt
	w.dirty = min(w.dirty, from)
}

// solve runs the selected linear solver on the already-assembled system
// (fill and rhsLayersInto must have run), updating x in place and
// the workspace's solve statistics. The multigrid path re-derives its
// coarse diagonals from whatever fillOperator assembled, so steady and
// transient systems need no extra plumbing here. A numerical failure
// returns its *linalg.SolveError, which wraps linalg.ErrNotConverged.
func (w *Workspace) solve(x linalg.Vector, tol float64) error {
	pre := linalg.Preconditioner(&w.pre)
	if w.solver == SolverMGPCG {
		if err := w.ensureHierarchy(); err != nil {
			return err
		}
		w.hier.refresh(w.dirty)
		w.dirty = w.m.nl
		pre = w.hier.mg
	}
	res, err := linalg.CGWith(&w.op, w.rhs, x, linalg.CGOptions{
		Tol:     tol,
		MaxIter: 40 * w.m.n,
		Precond: pre,
	}, &w.cg)
	w.stats.Solves++
	w.stats.Iterations += res.Iterations
	w.stats.Applies += res.Applies
	return err
}

// FieldA returns the workspace's reusable field buffer, allocating it on
// first use. The buffer is owned by the workspace: it stays valid
// across solves, which is exactly what lets a session keep the previous
// converged field as the next solve's warm start.
func (w *Workspace) FieldA() *Field {
	if w.a == nil {
		w.a = w.m.NewField()
	}
	return w.a
}

// Boundary returns a reusable top-boundary buffer sized to the grid
// (allocated on first use). Callers fill H/TFluid in place — e.g. the
// damped boundary a transient co-simulation carries between steps.
func (w *Workspace) Boundary() TopBoundary {
	if len(w.bc.H) != w.m.cells {
		w.bc = TopBoundary{H: make([]float64, w.m.cells), TFluid: make([]float64, w.m.cells)}
	}
	return w.bc
}

// checkDst validates a solve destination.
func (w *Workspace) checkDst(dst *Field) error {
	if dst == nil || dst.model != w.m || len(dst.T) != w.m.n {
		return fmt.Errorf("thermal: solve destination is not a field of this model (size %d)", w.m.n)
	}
	return nil
}

// SteadySolveLayersInto computes the steady-state field into dst, reusing
// the workspace buffers: no allocations after the buffers exist. The
// injected power is a dense per-layer table: layers[l] is layer l's
// per-cell watts (nil entries inject nothing; the table may be shorter
// than the stack). init, when non-nil and correctly sized, seeds the CG
// iteration (dst == init is allowed and skips the copy); otherwise the
// solve starts from ambient.
func (w *Workspace) SteadySolveLayersInto(dst, init *Field, layers [][]float64, bc TopBoundary) error {
	return w.SteadySolveLayersTolInto(dst, init, layers, bc, 0)
}

// SteadyTol is the relative CG residual every steady solve meets unless
// its caller asks for less (SteadySolveLayersTolInto).
const SteadyTol = 1e-10

// SteadySolveLayersTolInto is SteadySolveLayersInto with a caller-chosen
// relative CG residual tolerance: the solve stops once
// ‖b − Ax‖/‖b‖ < tol. A tol ≤ 0 means SteadyTol. A coupled fixed point
// whose boundary condition is itself still moving solves its early
// passes loosely through this form (see cosim.Session.SolveSteadyPower).
func (w *Workspace) SteadySolveLayersTolInto(dst, init *Field, layers [][]float64, bc TopBoundary, tol float64) error {
	if tol <= 0 {
		tol = SteadyTol
	}
	m := w.m
	if err := w.checkDst(dst); err != nil {
		return err
	}
	if err := m.checkBC(bc); err != nil {
		return err
	}
	w.fill(bc, 0)
	if err := m.rhsLayersInto(w.rhs, layers, bc); err != nil {
		return err
	}
	if init != nil && len(init.T) == m.n {
		if dst != init {
			copy(dst.T, init.T)
		}
	} else {
		dst.T.Fill(m.Env.AmbientC)
	}
	if err := w.solve(dst.T, tol); err != nil {
		return fmt.Errorf("thermal: steady solve: %w", err)
	}
	return nil
}

// StepTransientLayersInto advances prev by dt seconds with backward Euler
// into dst under the dense per-layer power table of
// SteadySolveLayersInto, reusing the workspace buffers. dst == prev is
// allowed: the step then updates the field in place (the previous
// temperatures are consumed by the right-hand side before CG mutates the
// iterate).
func (w *Workspace) StepTransientLayersInto(dst, prev *Field, dt float64, layers [][]float64, bc TopBoundary) error {
	m := w.m
	if dt <= 0 {
		return fmt.Errorf("thermal: non-positive dt %g", dt)
	}
	if err := m.checkBC(bc); err != nil {
		return err
	}
	if prev == nil || len(prev.T) != m.n {
		return fmt.Errorf("thermal: transient step needs a field of size %d", m.n)
	}
	if err := w.checkDst(dst); err != nil {
		return err
	}
	w.fill(bc, 1/dt)
	if err := m.rhsLayersInto(w.rhs, layers, bc); err != nil {
		return err
	}
	for i := range w.rhs {
		w.rhs[i] += m.capAll[i] / dt * prev.T[i]
	}
	if dst != prev {
		copy(dst.T, prev.T)
	}
	if err := w.solve(dst.T, 1e-9); err != nil {
		return fmt.Errorf("thermal: transient step: %w", err)
	}
	return nil
}
