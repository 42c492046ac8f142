package cosim

import (
	"errors"
	"testing"

	"repro/internal/linalg"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// TestSessionErrorInvalidatesWarmStart: any failed solve must drop the
// warm-start carry — the carried field may be half-converged or
// NaN-contaminated — so the next solve starts cold and lands byte-identical
// to a cold solve on a fresh session.
func TestSessionErrorInvalidatesWarmStart(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	st := fullLoadState(2.2)

	ses := sys.NewSession(WithSolver(thermal.SolverMGPCG))
	if _, err := ses.SolveSteady(nil, st, op); err != nil {
		t.Fatal(err)
	}
	if !ses.warm {
		t.Fatal("session not warm after a successful solve")
	}

	// Force a failure through the pass budget: doubling the dynamic power
	// moves the flux far more than the outer tolerance, so one pass
	// cannot converge even from the carry.
	hot := sys.Power.BlockPowers(fullLoadState(4.4))
	_, err = ses.solveCoupled(nil, hot, op, outerTol, innerForcing, 1, nil)
	if !errors.Is(err, linalg.ErrNotConverged) {
		t.Fatalf("failed solve returned %v, want an error wrapping ErrNotConverged", err)
	}
	if ses.warm {
		t.Fatal("failed solve left the warm-start carry armed")
	}

	// The next solve must seed cold and match a cold same-solver
	// reference byte for byte.
	got, err := ses.SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	ref := sys.NewSession(WithSolver(thermal.SolverMGPCG), CarryWarmStart(false))
	fresh, err := ref.SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != fresh.Iterations {
		t.Fatalf("post-failure solve took %d coupling iterations, fresh cold solve %d",
			got.Iterations, fresh.Iterations)
	}
	for i := range fresh.Field.T {
		if got.Field.T[i] != fresh.Field.T[i] {
			t.Fatalf("post-failure solve differs from fresh cold solve at cell %d: %v vs %v",
				i, got.Field.T[i], fresh.Field.T[i])
		}
	}
}
