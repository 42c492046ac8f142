package thermal

import (
	"testing"
)

// workspaceFixture builds a small model with a non-trivial power map and
// boundary for the workspace tests.
func workspaceFixture(t testing.TB) (*Model, [][]float64, TopBoundary) {
	t.Helper()
	m, err := NewModel(smallStack(12, 10), DefaultEnvironment())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, m.Cells())
	for i := range p {
		p[i] = 0.1 + 0.01*float64(i%7)
	}
	bc := UniformTop(m.Cells(), 6000, 32)
	return m, [][]float64{p}, bc
}

// TestWorkspaceSteadyMatchesFresh: a reused workspace must solve
// bit-identically to a fresh one, including when it is reused dirty, and
// agree to solver tolerance when warm-started from its own previous
// solution.
func TestWorkspaceSteadyMatchesFresh(t *testing.T) {
	m, power, bc := workspaceFixture(t)
	fresh, err := solveSteady(m, power, bc)
	if err != nil {
		t.Fatal(err)
	}
	w := m.NewWorkspace()
	f := w.FieldA()
	if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil {
		t.Fatal(err)
	}
	for i := range fresh.T {
		if fresh.T[i] != f.T[i] {
			t.Fatalf("cold workspace solve differs at %d: %v vs %v", i, fresh.T[i], f.T[i])
		}
	}
	// Dirty reuse, still cold-started: must stay bit-identical.
	if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil {
		t.Fatal(err)
	}
	for i := range fresh.T {
		if fresh.T[i] != f.T[i] {
			t.Fatalf("reused workspace solve differs at %d", i)
		}
	}
	// Warm start from the converged field (dst == init): the answer must
	// agree to solver tolerance and converge immediately.
	if err := w.SteadySolveLayersInto(f, f, power, bc); err != nil {
		t.Fatal(err)
	}
	for i := range fresh.T {
		if d := fresh.T[i] - f.T[i]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("warm-started solve drifted at %d: Δ%g", i, d)
		}
	}
}

// TestWorkspaceTransientMatchesFresh: in-place steps on one reused
// workspace must match steps taken on a fresh workspace into a new field,
// step for step.
func TestWorkspaceTransientMatchesFresh(t *testing.T) {
	m, power, bc := workspaceFixture(t)
	const dt = 0.25

	freshField := m.UniformField(30)
	w := m.NewWorkspace()
	wsField := w.FieldA()
	wsField.T.Fill(30)
	for step := 0; step < 5; step++ {
		next := m.NewField()
		if err := m.NewWorkspace().StepTransientLayersInto(next, freshField, dt, power, bc); err != nil {
			t.Fatal(err)
		}
		freshField = next
		if err := w.StepTransientLayersInto(wsField, wsField, dt, power, bc); err != nil {
			t.Fatal(err)
		}
		for i := range freshField.T {
			if freshField.T[i] != wsField.T[i] {
				t.Fatalf("step %d differs at %d: %v vs %v", step, i, freshField.T[i], wsField.T[i])
			}
		}
	}
}

// TestWorkspaceValidation: bad destinations and boundaries are rejected.
func TestWorkspaceValidation(t *testing.T) {
	m, power, bc := workspaceFixture(t)
	w := m.NewWorkspace()
	if err := w.SteadySolveLayersInto(nil, nil, power, bc); err == nil {
		t.Fatal("nil destination must error")
	}
	other, err := NewModel(smallStack(4, 4), DefaultEnvironment())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SteadySolveLayersInto(other.NewField(), nil, power, bc); err == nil {
		t.Fatal("foreign-model destination must error")
	}
	if err := w.SteadySolveLayersInto(w.FieldA(), nil, power, TopBoundary{}); err == nil {
		t.Fatal("mis-sized boundary must error")
	}
	if err := w.StepTransientLayersInto(w.FieldA(), w.FieldA(), -1, power, bc); err == nil {
		t.Fatal("negative dt must error")
	}
	if err := w.StepTransientLayersInto(w.FieldA(), nil, 0.1, power, bc); err == nil {
		t.Fatal("nil previous field must error")
	}
	if err := w.SteadySolveLayersInto(w.FieldA(), nil, make([][]float64, m.Layers()+1), bc); err == nil {
		t.Fatal("a power table longer than the stack must error")
	}
	if err := w.StepTransientLayersInto(w.FieldA(), w.FieldA(), 0.1, [][]float64{make([]float64, 3)}, bc); err == nil {
		t.Fatal("mis-sized layer power must error")
	}
}

// TestWorkspaceSteadyZeroAllocs is the allocation-regression gate of the
// tentpole: after warm-up, a workspace-backed steady solve must perform
// zero heap allocations.
func TestWorkspaceSteadyZeroAllocs(t *testing.T) {
	m, power, bc := workspaceFixture(t)
	w := m.NewWorkspace()
	f := w.FieldA()
	solve := func() {
		if err := w.SteadySolveLayersInto(f, f, power, bc); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil { // warm-up
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, solve); allocs != 0 {
		t.Fatalf("workspace steady solve allocated %.1f times per run, want 0", allocs)
	}
}

// TestWorkspaceTransientZeroAllocs: same gate for the transient step.
func TestWorkspaceTransientZeroAllocs(t *testing.T) {
	m, power, bc := workspaceFixture(t)
	w := m.NewWorkspace()
	f := w.FieldA()
	f.T.Fill(30)
	step := func() {
		if err := w.StepTransientLayersInto(f, f, 0.25, power, bc); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm-up
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("workspace transient step allocated %.1f times per run, want 0", allocs)
	}
}
