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
	// iteration counts (O(n) work) with CG's robustness. It is faster
	// than SolverCG at every grid the commands use, and thermservd's
	// default.
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
	// Escalations is always 0: a workspace runs its configured solver
	// once and never falls back to another. It stays only because
	// bench/thermbench still reads it; the bench-only change that
	// ROADMAP item 3 waits on deletes it.
	Escalations int
}
