package thermal

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// escalationFixture builds a model plus assembled power/boundary for the
// ladder tests, at the standard medium package grid.
func escalationFixture(t testing.TB) (*Model, [][]float64, TopBoundary) {
	t.Helper()
	return xvalModel(t, floorplan.XeonE5Package(), 38, 30)
}

// TestParseSolverRoundTrip: every solver parses back from its flag
// spelling, and the spellings of deleted modes are refused with an error
// that lists the valid ones.
func TestParseSolverRoundTrip(t *testing.T) {
	for _, s := range []Solver{SolverCG, SolverMGPCG} {
		got, err := ParseSolver(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSolver(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, name := range []string{"mg", "mgpcg32", "mgpcg-cheb"} {
		_, err := ParseSolver(name)
		if err == nil {
			t.Errorf("ParseSolver(%q) accepted a removed solver", name)
			continue
		}
		if !strings.Contains(err.Error(), "cg|mgpcg)") {
			t.Errorf("ParseSolver(%q) error %q does not list cg|mgpcg", name, err)
		}
	}
}

func TestNextRung(t *testing.T) {
	cases := []struct {
		from Solver
		to   Solver
		ok   bool
	}{
		{SolverMGPCG, SolverCG, true},
		{SolverCG, SolverCG, false}, // terminal rung
	}
	for _, c := range cases {
		to, ok := nextRung(c.from)
		if ok != c.ok || (ok && to != c.to) {
			t.Errorf("nextRung(%v) = %v,%v; want %v,%v", c.from, to, ok, c.to, c.ok)
		}
	}
}

// TestInjectedMGFaultEscalatesToCG is the PR's acceptance gate: with the
// MG preconditioner NaN-poisoned, a mgpcg steady solve must descend the
// ladder (mgpcg → cg), succeed on the terminal Jacobi-CG rung, and agree
// with a direct Jacobi-CG solve.
func TestInjectedMGFaultEscalatesToCG(t *testing.T) {
	m, power, bc := escalationFixture(t)

	// Reference: direct Jacobi-CG, ladder irrelevant (cg never fails here).
	wref := m.NewWorkspace()
	wref.SetSolver(SolverCG)
	ref := wref.FieldA()
	if err := wref.SteadySolveLayersInto(ref, nil, power, bc); err != nil {
		t.Fatal(err)
	}

	w := m.NewWorkspace()
	w.SetSolver(SolverMGPCG)
	w.InjectMGFault(true)
	got := w.FieldA()
	if err := w.SteadySolveLayersInto(got, nil, power, bc); err != nil {
		t.Fatalf("ladder did not rescue the poisoned solve: %v", err)
	}

	esc := w.Escalations()
	if len(esc) != 1 {
		t.Fatalf("escalations = %v, want mgpcg→cg (1 descent)", esc)
	}
	if esc[0].From != SolverMGPCG || esc[0].To != SolverCG || esc[0].Cause != "nan" {
		t.Errorf("descent = %v, want mgpcg→cg (nan)", esc[0])
	}
	if got := esc[0].String(); got != "mgpcg→cg (nan)" {
		t.Errorf("descent renders as %q, want %q", got, "mgpcg→cg (nan)")
	}
	if w.Stats().Escalations != 1 {
		t.Errorf("Stats().Escalations = %d, want 1", w.Stats().Escalations)
	}
	if w.Solver() != SolverMGPCG {
		t.Errorf("configured solver drifted to %v — ladder must not rewrite it", w.Solver())
	}

	// The rescued solve reseeds from ambient before the terminal cg rung —
	// exactly the direct cg path — so it matches far inside the 1e-7
	// acceptance bound (byte-identically, in fact).
	for i := range ref.T {
		if got.T[i] != ref.T[i] {
			t.Fatalf("rescued solve differs from direct cg at %d: %v vs %v", i, got.T[i], ref.T[i])
		}
	}
}

// TestEscalationTransientRestoresSeed: a poisoned transient step must
// retry from the previous-step field (not ambient) and land byte-identical
// to a direct Jacobi-CG step.
func TestEscalationTransientRestoresSeed(t *testing.T) {
	m, power, bc := escalationFixture(t)

	step := func(w *Workspace) *Field {
		prev := w.FieldA()
		if err := w.SteadySolveLayersInto(prev, nil, power, bc); err != nil {
			t.Fatal(err)
		}
		dst := w.FieldB()
		if err := w.StepTransientLayersInto(dst, prev, 0.05, power, bc); err != nil {
			t.Fatal(err)
		}
		return dst
	}

	wref := m.NewWorkspace()
	wref.SetSolver(SolverCG)
	ref := step(wref)

	w := m.NewWorkspace()
	w.SetSolver(SolverMGPCG)
	w.InjectMGFault(true)
	got := step(w)

	if len(w.Escalations()) == 0 {
		t.Fatal("poisoned transient step never escalated")
	}
	for i := range ref.T {
		if got.T[i] != ref.T[i] {
			t.Fatalf("rescued transient step differs from direct cg at %d: %v vs %v", i, got.T[i], ref.T[i])
		}
	}
}

// TestEscalationByteIdenticalAcrossThreads: the rescued solve keeps the
// thread-count determinism contract.
func TestEscalationByteIdenticalAcrossThreads(t *testing.T) {
	m, power, bc := escalationFixture(t)
	solve := func(threads int) linalg.Vector {
		w := m.NewWorkspace()
		defer w.Close()
		w.SetSolver(SolverMGPCG)
		w.InjectMGFault(true)
		if threads > 1 {
			w.SetThreads(threads)
		}
		f := w.FieldA()
		if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil {
			t.Fatal(err)
		}
		if len(w.Escalations()) != 1 {
			t.Fatalf("threads=%d: escalations = %v", threads, w.Escalations())
		}
		return append(linalg.Vector(nil), f.T...)
	}
	serial := solve(1)
	for _, n := range []int{2, 4} {
		par := solve(n)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("threads=%d differs from serial at %d: %v vs %v", n, i, par[i], serial[i])
			}
		}
	}
}

// TestEscalationDisabled: with the ladder off, the poisoned solve must
// surface its diagnostic SolveError unchanged.
func TestEscalationDisabled(t *testing.T) {
	m, power, bc := escalationFixture(t)
	w := m.NewWorkspace()
	w.SetSolver(SolverMGPCG)
	w.SetEscalation(false)
	w.InjectMGFault(true)
	f := w.FieldA()
	err := w.SteadySolveLayersInto(f, nil, power, bc)
	if err == nil {
		t.Fatal("poisoned solve succeeded with the ladder disabled")
	}
	if !errors.Is(err, linalg.ErrNotConverged) {
		t.Fatalf("error %v does not unwrap to ErrNotConverged", err)
	}
	var se *linalg.SolveError
	if !errors.As(err, &se) || se.Cause != linalg.CauseNaN {
		t.Fatalf("error %v is not a CauseNaN SolveError", err)
	}
	if n := len(w.Escalations()); n != 0 {
		t.Fatalf("disabled ladder still recorded %d escalations", n)
	}
}

// TestEscalationObservesContext: a cancelled context aborts the ladder
// between rungs instead of grinding through every fallback.
func TestEscalationObservesContext(t *testing.T) {
	m, power, bc := escalationFixture(t)
	w := m.NewWorkspace()
	w.SetSolver(SolverMGPCG)
	w.InjectMGFault(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w.SetContext(ctx)
	f := w.FieldA()
	err := w.SteadySolveLayersInto(f, nil, power, bc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the inter-rung check", err)
	}
}
