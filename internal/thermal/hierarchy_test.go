package thermal

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// serviceGrids are the three grids the reproduction serves: coarse,
// medium and full.
var serviceGrids = []struct{ nx, ny int }{{19, 15}, {38, 30}, {76, 60}}

// TestCoarsestBandSolveMatchesDense: on the coarsest level of the coarse,
// medium and full hierarchies, under a steady and a transient diagonal,
// the exact banded solve the V-cycle ends on must match a dense LU
// solve of the same level's matrix (assembled column by column from the
// stencil's Apply) to 1e-12 relative.
func TestCoarsestBandSolveMatchesDense(t *testing.T) {
	for _, g := range serviceGrids {
		for _, capOverDt := range []float64{0, 1 / 0.25} {
			t.Run(fmt.Sprintf("%dx%d/capOverDt=%g", g.nx, g.ny, capOverDt), func(t *testing.T) {
				m, _, bc := xvalModel(t, floorplan.XeonE5Package(), g.nx, g.ny)
				w := m.NewWorkspace()
				m.fillOperator(&w.op, bc, capOverDt, 0)
				h, err := newHierarchy(m, &w.op)
				if err != nil {
					t.Fatal(err)
				}
				h.refresh(0)
				cs := h.levels[len(h.levels)-1].st
				if cs.cells > coarsestCells {
					t.Fatalf("coarsest level has %d cells per layer, want ≤ %d", cs.cells, coarsestCells)
				}
				n := cs.n
				a := linalg.NewDense(n, n)
				e := make(linalg.Vector, n)
				col := make(linalg.Vector, n)
				for j := 0; j < n; j++ {
					e.Fill(0)
					e[j] = 1
					cs.Apply(e, col)
					for i, v := range col {
						a.Set(i, j, v)
					}
				}
				b := make(linalg.Vector, n)
				for i := range b {
					b[i] = math.Sin(float64(i)) + 0.5
				}
				want, err := linalg.SolveDense(a, b)
				if err != nil {
					t.Fatal(err)
				}
				// A one-level hierarchy's cycle is exactly the coarsest solve.
				mg, err := linalg.NewMultigrid([]linalg.MGLevel{{A: cs}})
				if err != nil {
					t.Fatal(err)
				}
				got := make(linalg.Vector, n)
				mg.Cycle(b, got)
				var scale, diff float64
				for i := range want {
					scale = math.Max(scale, math.Abs(want[i]))
					diff = math.Max(diff, math.Abs(got[i]-want[i]))
				}
				if diff > 1e-12*scale {
					t.Fatalf("band solve deviates from dense LU by %.3g (relative %.3g, want ≤ 1e-12)", diff, diff/scale)
				}
			})
		}
	}
}

// TestNaNBoundaryFailsMGPCG: a NaN boundary coefficient must end a
// MG-PCG solve as an error wrapping linalg.ErrNotConverged, steady and
// transient, never as a panic.
func TestNaNBoundaryFailsMGPCG(t *testing.T) {
	m, power, bc := xvalModel(t, floorplan.XeonE5Package(), 19, 15)
	bc.H[7] = math.NaN()
	w := m.NewWorkspace()
	w.SetSolver(SolverMGPCG)
	f := w.FieldA()
	if err := w.SteadySolveLayersInto(f, nil, power, bc); !errors.Is(err, linalg.ErrNotConverged) {
		t.Fatalf("steady solve with a NaN boundary: err = %v, want ErrNotConverged", err)
	}
	f.T.Fill(40)
	if err := w.StepTransientLayersInto(f, f, 0.25, power, bc); !errors.Is(err, linalg.ErrNotConverged) {
		t.Fatalf("transient step with a NaN boundary: err = %v, want ErrNotConverged", err)
	}
}

// TestHierarchyGeometryShared: two workspaces on one Model share every
// coarse conductance array, transfer weight product and axis map (same
// backing array), while each owns its diagonals.
func TestHierarchyGeometryShared(t *testing.T) {
	m, power, bc := xvalModel(t, floorplan.XeonE5Package(), 38, 30)
	var hs [2]*hierarchy
	for i := range hs {
		w := m.NewWorkspace()
		w.SetSolver(SolverMGPCG)
		if err := w.SteadySolveLayersInto(w.FieldA(), nil, power, bc); err != nil {
			t.Fatal(err)
		}
		hs[i] = w.hier
	}
	a, b := hs[0], hs[1]
	if len(a.levels) != 4 || len(b.levels) != 4 {
		t.Fatalf("medium hierarchies have %d and %d levels, want 4", len(a.levels), len(b.levels))
	}
	same := func(what string, x, y []float64) {
		t.Helper()
		if len(x) == 0 || &x[0] != &y[0] {
			t.Errorf("%s is not shared", what)
		}
	}
	for k := range a.levels {
		la, lb := a.levels[k], b.levels[k]
		if k > 0 {
			same(fmt.Sprintf("level %d gx", k), la.st.gx, lb.st.gx)
			same(fmt.Sprintf("level %d gy", k), la.st.gy, lb.st.gy)
			same(fmt.Sprintf("level %d gz", k), la.st.gz, lb.st.gz)
			if &la.st.diag[0] == &lb.st.diag[0] || &la.extDiag[0] == &lb.extDiag[0] {
				t.Errorf("level %d diagonals are shared; each workspace must own its own", k)
			}
		}
		if la.down != nil {
			same(fmt.Sprintf("level %d pp", k), la.down.pp, lb.down.pp)
			same(fmt.Sprintf("level %d oo", k), la.down.oo, lb.down.oo)
			if &la.down.xm.parent[0] != &lb.down.xm.parent[0] || &la.down.ym.other[0] != &lb.down.ym.other[0] {
				t.Errorf("level %d axis maps are not shared", k)
			}
			if la.down == lb.down {
				t.Errorf("level %d transfer shell is shared; it carries the workspace's team", k)
			}
		}
	}
}

// TestConcurrentFirstSolvesShareGeometry: four workspaces of one fresh
// Model run their first MG-PCG solves at once (so they race to build the
// shared geometry) and must match a solo solve byte for byte, at one and
// two threads. The race detector covers the build.
func TestConcurrentFirstSolvesShareGeometry(t *testing.T) {
	_, power, bc := xvalModel(t, floorplan.XeonE5Package(), 38, 30)
	solo := func(m *Model, threads int) linalg.Vector {
		w := m.NewWorkspace()
		defer w.Close()
		w.SetSolver(SolverMGPCG)
		w.SetThreads(threads)
		f := w.FieldA()
		if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil {
			t.Error(err)
		}
		return f.T
	}
	for _, threads := range []int{1, 2} {
		m, _, _ := xvalModel(t, floorplan.XeonE5Package(), 38, 30)
		want := solo(m, threads)
		m, _, _ = xvalModel(t, floorplan.XeonE5Package(), 38, 30)
		got := make([]linalg.Vector, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = solo(m, threads)
			}(i)
		}
		wg.Wait()
		for i, g := range got {
			vecsEqual(t, fmt.Sprintf("threads=%d workspace %d", threads, i), g, want)
		}
	}
}

// TestHierarchyFootprint pins what a second medium workspace allocates
// for its multigrid hierarchy, counted in float64s (8-byte words of heap
// allocated while the hierarchy is built), at the count measured on
// amd64 with Go 1.24. The geometry is shared, so the count covers only
// the coarse diagonals, the V-cycle scratch, the coarsest level's band
// factor and the level shells. It read 20,952 while each transfer shell
// copied the transfer's dimensions, axis maps and weight slices; with
// those (and the weight products that replaced the weights) in the
// shared transferGrid, a shell is a pointer and a team, and the stencil
// shells carry two more slice headers (gw, zero): 20,886.
func TestHierarchyFootprint(t *testing.T) {
	const maxFloats = 20886
	m, _, _ := xvalModel(t, floorplan.XeonE5Package(), 38, 30)
	if _, err := newHierarchy(m, &m.NewWorkspace().op); err != nil { // builds the shared geometry
		t.Fatal(err)
	}
	measure := func() uint64 {
		w := m.NewWorkspace()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, err := newHierarchy(m, &w.op)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(h)
		return (after.TotalAlloc - before.TotalAlloc) / 8
	}
	got := measure()
	for i := 0; i < 2; i++ {
		got = min(got, measure())
	}
	t.Logf("second medium workspace hierarchy: %d float64s", got)
	if got > maxFloats {
		t.Fatalf("a second medium workspace allocates %d float64s for its hierarchy, want ≤ %d", got, maxFloats)
	}
}

// TestPartialRefreshMatchesFull: a workspace refills and refreshes only
// from the first layer whose diagonal changed since the last solve (the
// top layer, when only the boundary moved). Through steady → transient
// (dt₁) → steady → steady → transient (dt₂) → transient (dt₂), each with
// a new boundary, its fine and coarse diagonals and the V-cycle (which
// ends on the coarsest factor) must equal a full fill and refresh on a
// fresh workspace bit for bit, serially and on two threads. A dt₂ step
// refused after its fill (a malformed power table) precedes the first
// dt₂ step, so that step's fill finds C/dt unchanged while the hierarchy
// still holds the steady diagonals.
func TestPartialRefreshMatchesFull(t *testing.T) {
	m, power, _ := xvalModel(t, floorplan.XeonE5Package(), 38, 30)
	steps := []struct{ dt, h float64 }{{0, 6000}, {0.25, 5000}, {0, 7000}, {0, 6500}, {0.1, 5500}, {0.1, 8000}}
	b := make(linalg.Vector, m.n)
	for i := range b {
		b[i] = math.Sin(0.37*float64(i)) + 0.2
	}
	for _, threads := range []int{1, 2} {
		w := m.NewWorkspace()
		w.SetSolver(SolverMGPCG)
		w.SetThreads(threads)
		f := w.FieldA()
		f.T.Fill(40)
		for i, s := range steps {
			bc := UniformTop(m.Cells(), s.h, 32)
			for c := range bc.H {
				bc.H[c] *= 1 + 0.2*math.Sin(float64(c+i))
			}
			var capOverDt float64
			if s.dt == 0 {
				if err := w.SteadySolveLayersInto(f, f, power, bc); err != nil {
					t.Fatal(err)
				}
			} else {
				capOverDt = 1 / s.dt
				if i == 4 {
					if err := w.StepTransientLayersInto(f, f, s.dt, [][]float64{power[0][1:]}, bc); err == nil {
						t.Fatal("a step with a short power table was accepted")
					}
				}
				if err := w.StepTransientLayersInto(f, f, s.dt, power, bc); err != nil {
					t.Fatal(err)
				}
			}
			ref := m.NewWorkspace()
			m.fillOperator(&ref.op, bc, capOverDt, 0)
			h, err := newHierarchy(m, &ref.op)
			if err != nil {
				t.Fatal(err)
			}
			h.refresh(0)
			name := fmt.Sprintf("threads=%d step %d (dt %g)", threads, i, s.dt)
			vecsEqual(t, name+" fine diagonal", w.op.diag, ref.op.diag)
			vecsEqual(t, name+" fine inverse diagonal", w.op.invDiag, ref.op.invDiag)
			for k := 1; k < len(h.levels); k++ {
				vecsEqual(t, fmt.Sprintf("%s level %d diagonal", name, k), w.hier.levels[k].st.diag, h.levels[k].st.diag)
				vecsEqual(t, fmt.Sprintf("%s level %d inverse diagonal", name, k), w.hier.levels[k].st.invDiag, h.levels[k].st.invDiag)
			}
			got, want := make(linalg.Vector, m.n), make(linalg.Vector, m.n)
			w.hier.mg.Cycle(b, got)
			h.mg.Cycle(b, want)
			vecsEqual(t, name+" V-cycle", got, want)
		}
		w.Close()
	}
}
