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

	// Force a numerical failure: NaN-poison the MG preconditioner with the
	// escalation ladder disabled, so the solve error surfaces.
	ses.ws.SetEscalation(false)
	ses.ws.InjectMGFault(true)
	_, err = ses.SolveSteady(nil, st, op)
	if err == nil {
		t.Fatal("poisoned solve succeeded")
	}
	if !errors.Is(err, linalg.ErrNotConverged) {
		t.Fatalf("poisoned solve error %v does not unwrap to ErrNotConverged", err)
	}
	if ses.warm {
		t.Fatal("failed solve left the warm-start carry armed")
	}

	// Heal the solver: the next solve must seed cold and match a cold
	// same-solver reference byte for byte.
	ses.ws.SetEscalation(true)
	ses.ws.InjectMGFault(false)
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

// TestSessionEscalationsSurfaced: a session whose solves escalate must
// report the descents through the accessor, and the rescued solve must
// still converge and re-arm the warm start.
func TestSessionEscalationsSurfaced(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	st := fullLoadState(2.2)

	ses := sys.NewSession(WithSolver(thermal.SolverMGPCG))
	ses.ws.InjectMGFault(true)
	if _, err := ses.SolveSteady(nil, st, op); err != nil {
		t.Fatalf("ladder did not rescue the poisoned session solve: %v", err)
	}
	if !ses.warm {
		t.Fatal("rescued solve did not re-arm the warm start")
	}
	esc := ses.Escalations()
	if len(esc) == 0 {
		t.Fatal("session escalations not surfaced")
	}
	if ses.SolverStats().Escalations != len(esc) {
		t.Fatalf("SolverStats().Escalations = %d but Escalations() lists %d",
			ses.SolverStats().Escalations, len(esc))
	}
}
