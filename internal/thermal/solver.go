package thermal

import "fmt"

// Solver selects the linear solver a Workspace uses for steady and
// transient systems. The zero value is the Jacobi-preconditioned CG the
// solve stack has always used, so existing callers are unaffected.
type Solver int

// Available solvers.
const (
	// SolverCG is Jacobi-preconditioned conjugate gradient: robust and
	// allocation-free, but its iteration count grows with grid
	// resolution (O(n^1.5) work on an n-cell layer).
	SolverCG Solver = iota
	// SolverMGPCG is conjugate gradient preconditioned with one
	// geometric-multigrid V-cycle per iteration: resolution-independent
	// iteration counts (O(n) work) with CG's robustness. The default
	// choice for fine grids.
	SolverMGPCG
)

// String names the solver the way the -solver command-line flags spell it.
func (s Solver) String() string {
	switch s {
	case SolverCG:
		return "cg"
	case SolverMGPCG:
		return "mgpcg"
	default:
		return fmt.Sprintf("solver(%d)", int(s))
	}
}

// ParseSolver parses a -solver flag value.
func ParseSolver(s string) (Solver, error) {
	switch s {
	case "cg":
		return SolverCG, nil
	case "mgpcg":
		return SolverMGPCG, nil
	default:
		return SolverCG, fmt.Errorf("thermal: unknown solver %q (want cg|mgpcg)", s)
	}
}

// nextRung returns the solver the escalation ladder falls back to after s
// fails, and whether a rung below s exists. The ladder ends on the
// terminal Jacobi-CG rung — the solver with the least numerical machinery
// (no V-cycle) and hence the least that can break:
//
//	mgpcg → cg
//	cg    (terminal)
func nextRung(s Solver) (Solver, bool) {
	if s == SolverMGPCG {
		return SolverCG, true
	}
	return s, false
}

// Escalation records one rung descent of the solver escalation ladder: the
// solver that failed, the one the solve retried on, and the linalg cause
// of the failure. Escalations are surfaced, never hidden — workspaces
// accumulate them (Workspace.Escalations) and SolveStats counts them.
type Escalation struct {
	From, To Solver
	// Cause is the linalg failure cause of the abandoned rung
	// (maxiter / nan / breakdown).
	Cause string
}

// String renders the descent, e.g. "mgpcg→cg (breakdown)".
func (e Escalation) String() string {
	return fmt.Sprintf("%s→%s (%s)", e.From, e.To, e.Cause)
}

// SolveStats accumulates linear-solver effort over a workspace's lifetime,
// letting experiments compare solvers by work rather than wall time.
type SolveStats struct {
	// Solves counts linear solves (steady solves and transient steps).
	Solves int
	// Iterations counts CG iterations across all solves.
	Iterations int
	// Applies counts fine-grid operator applications as reported by the
	// linalg drivers (see linalg.CGResult.Applies).
	Applies int
	// Escalations counts ladder descents: solves that abandoned the
	// configured solver for a lower rung after a failure.
	Escalations int
}
