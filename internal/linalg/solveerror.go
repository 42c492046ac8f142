package linalg

import (
	"fmt"
	"math"
)

// Cause classifies why an iterative solve stopped without converging.
// The distinction matters to callers: a MaxIter failure means "needs more
// work or a better preconditioner" (retrying the same solver is
// pointless but the iterate is still meaningful), while NaN and Breakdown
// mean the iterate is poisoned and any warm-start state derived from it
// must be discarded before retrying on a safer solver.
type Cause int

// Failure causes.
const (
	// CauseMaxIter: the iteration budget ran out before the tolerance was
	// met. The final iterate is the best approximation produced.
	CauseMaxIter Cause = iota
	// CauseNaN: a NaN or Inf contaminated the recurrence (overflow, a
	// poisoned warm-start seed, or a fault-injected preconditioner). The
	// iterate is unusable.
	CauseNaN
	// CauseBreakdown: the Krylov recurrence observed pᵀAp ≤ 0, i.e. the
	// (preconditioned) operator is not symmetric positive definite along
	// the search direction. Typical trigger: a preconditioner that lost
	// SPD-ness.
	CauseBreakdown
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseMaxIter:
		return "maxiter"
	case CauseNaN:
		return "nan"
	case CauseBreakdown:
		return "breakdown"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// SolveError is the diagnostic failure report of an iterative solver: the
// cause, how far the solve got, and the last relative residual. It wraps
// ErrNotConverged, so existing callers testing
// errors.Is(err, ErrNotConverged) keep working unchanged.
type SolveError struct {
	// Method is the solver that failed (e.g. "cg").
	Method string
	// Cause classifies the failure.
	Cause Cause
	// Iterations is the iteration (or sweep) count reached.
	Iterations int
	// Residual is the final relative residual ‖r‖/‖b‖ (may be NaN for
	// CauseNaN failures).
	Residual float64
}

// Error formats the diagnostic.
func (e *SolveError) Error() string {
	return fmt.Sprintf("linalg: %s did not converge (%s after %d iterations, residual %.3g)",
		e.Method, e.Cause, e.Iterations, e.Residual)
}

// Unwrap makes errors.Is(err, ErrNotConverged) hold for every SolveError.
func (e *SolveError) Unwrap() error { return ErrNotConverged }

// Recoverable reports whether the iterate the solver left behind is still
// a meaningful approximation: true for a plain iteration-budget failure,
// false when the recurrence itself broke (NaN, SPD breakdown) and the
// iterate — plus any warm-start state seeded from it — must be discarded.
func (e *SolveError) Recoverable() bool { return e.Cause == CauseMaxIter }

// failure builds the diagnostic error for one solver failure.
func failure(method string, cause Cause, res CGResult) error {
	return &SolveError{Method: method, Cause: cause, Iterations: res.Iterations, Residual: res.Residual}
}

// badFloat reports a NaN or Inf — the sentinel of a poisoned iterate.
func badFloat(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
