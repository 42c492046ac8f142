package thermal

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// xvalModel builds a model over the given package geometry at the given
// resolution with a deterministic non-uniform die power pattern.
func xvalModel(t testing.TB, pg floorplan.PackageGeometry, nx, ny int) (*Model, [][]float64, TopBoundary) {
	t.Helper()
	stack := NewXeonStack(XeonStackConfig{NX: nx, NY: ny, Package: pg})
	m, err := NewModel(stack, DefaultEnvironment())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, m.Cells())
	g := m.Grid()
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			// A tilted gradient plus two hot spots, scaled so total power
			// stays around 85 W at any resolution.
			v := 0.2 + 0.6*float64(ix)/float64(nx) + 0.2*float64(iy)/float64(ny)
			if ix > nx/5 && ix < nx/3 && iy > ny/4 && iy < ny/2 {
				v += 3
			}
			if ix > 2*nx/3 && iy > 2*ny/3 {
				v += 2
			}
			p[g.Index(ix, iy)] = v * 85 / (1.2 * float64(nx*ny))
		}
	}
	return m, [][]float64{p}, UniformTop(m.Cells(), 6000, 32)
}

// solveWithTol runs the workspace solver path with a caller-chosen
// tolerance, bypassing the public wrappers' fixed 1e-10 so the
// cross-validation can push all solvers to equal, tight accuracy.
func solveWithTol(t testing.TB, m *Model, s Solver, power [][]float64, bc TopBoundary, tol float64) (linalg.Vector, SolveStats) {
	t.Helper()
	w := m.NewWorkspace()
	w.SetSolver(s)
	m.fillOperator(&w.op, bc, 0)
	if err := m.rhsLayersInto(w.rhs, power, bc); err != nil {
		t.Fatal(err)
	}
	x := make(linalg.Vector, m.n)
	x.Fill(m.Env.AmbientC)
	if err := w.solve(x, tol, reseedAmbient); err != nil {
		t.Fatalf("%v solve: %v", s, err)
	}
	return x, w.Stats()
}

// TestSolverCrossValidation: Jacobi-CG and MG-PCG must agree on the
// steady field to 1e-7 max-abs on both the Broadwell (Xeon E5) package
// and the generic scaled package.
func TestSolverCrossValidation(t *testing.T) {
	spec := floorplan.DefaultGridSpec(4, 4)
	fp, err := floorplan.Generic(spec)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		pg     floorplan.PackageGeometry
		nx, ny int
	}{
		{"broadwell", floorplan.XeonE5Package(), 38, 30},
		{"generic16", floorplan.GenericPackage(fp), 45, 30},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, power, bc := xvalModel(t, c.pg, c.nx, c.ny)
			ref, _ := solveWithTol(t, m, SolverCG, power, bc, 1e-12)
			got, _ := solveWithTol(t, m, SolverMGPCG, power, bc, 1e-12)
			var maxAbs float64
			for i := range ref {
				if d := math.Abs(got[i] - ref[i]); d > maxAbs {
					maxAbs = d
				}
			}
			if maxAbs > 1e-7 {
				t.Errorf("mgpcg deviates from cg by %.3g °C max-abs (want ≤ 1e-7)", maxAbs)
			}
		})
	}
}

// TestMGEnergyBalance128: at 128×128, the MG-PCG steady solution must
// close the global energy balance — every injected watt leaves through
// the top or bottom boundary.
func TestMGEnergyBalance128(t *testing.T) {
	m, power, bc := xvalModel(t, floorplan.XeonE5Package(), 128, 128)
	var total float64
	for _, w := range power[0] {
		total += w
	}
	w := m.NewWorkspace()
	w.SetSolver(SolverMGPCG)
	f := w.FieldA()
	if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil {
		t.Fatal(err)
	}
	out := f.TotalHeatToTop(bc) + f.TotalHeatToBottom()
	if rel := math.Abs(out-total) / total; rel > 1e-4 {
		t.Fatalf("energy balance off by %.3g relative (in %.3f W, out %.3f W)", rel, total, out)
	}
}

// TestMGPCGAppliesAdvantage is the tentpole's acceptance gate: on a
// 256×256-per-layer steady problem, MG-PCG must need at least 5× fewer
// operator applications than Jacobi-CG at the production tolerance.
func TestMGPCGAppliesAdvantage(t *testing.T) {
	m, power, bc := xvalModel(t, floorplan.XeonE5Package(), 256, 256)
	_, cgStats := solveWithTol(t, m, SolverCG, power, bc, 1e-10)
	_, mgStats := solveWithTol(t, m, SolverMGPCG, power, bc, 1e-10)
	if cgStats.Applies == 0 || mgStats.Applies == 0 {
		t.Fatalf("missing applies accounting: cg %+v, mgpcg %+v", cgStats, mgStats)
	}
	if mgStats.Applies*5 > cgStats.Applies {
		t.Fatalf("MG-PCG used %d applies vs Jacobi-CG %d — less than the required 5× advantage",
			mgStats.Applies, cgStats.Applies)
	}
	t.Logf("256×256×%d: jacobi-cg %d applies (%d iters), mg-pcg %d applies (%d iters), %.1f× fewer",
		m.Layers(), cgStats.Applies, cgStats.Iterations, mgStats.Applies, mgStats.Iterations,
		float64(cgStats.Applies)/float64(mgStats.Applies))
}

// TestMGSolversDeterministic: for each solver, repeated solves on fresh
// workspaces must be byte-identical — the property the
// pooled sweeps rely on.
func TestMGSolversDeterministic(t *testing.T) {
	m, power, bc := xvalModel(t, floorplan.XeonE5Package(), 38, 30)
	for _, s := range []Solver{SolverCG, SolverMGPCG} {
		a, _ := solveWithTol(t, m, s, power, bc, 1e-10)
		b, _ := solveWithTol(t, m, s, power, bc, 1e-10)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: repeated solve differs at %d: %v vs %v", s, i, a[i], b[i])
			}
		}
	}
}

// TestWorkspaceMGZeroAllocs: the warm V-cycle path (hierarchy built,
// buffers sized) must perform zero heap allocations, steady and transient.
func TestWorkspaceMGZeroAllocs(t *testing.T) {
	s := SolverMGPCG
	t.Run(s.String(), func(t *testing.T) {
		m, power, bc := workspaceFixture(t)
		w := m.NewWorkspace()
		w.SetSolver(s)
		f := w.FieldA()
		if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil { // warm-up
			t.Fatal(err)
		}
		solve := func() {
			if err := w.SteadySolveLayersInto(f, f, power, bc); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(20, solve); allocs != 0 {
			t.Fatalf("warm %v steady solve allocated %.1f times per run, want 0", s, allocs)
		}
		step := func() {
			if err := w.StepTransientLayersInto(f, f, 0.25, power, bc); err != nil {
				t.Fatal(err)
			}
		}
		step() // warm transient (same hierarchy, capacitive diagonal)
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Fatalf("warm %v transient step allocated %.1f times per run, want 0", s, allocs)
		}
	})
}

// TestHierarchyCoarseOperatorConsistency: on a uniform two-layer copper
// slab the rediscretized coarse stencil must reproduce the direct
// discretization at the doubled pitch exactly.
func TestHierarchyCoarseOperatorConsistency(t *testing.T) {
	build := func(nx, ny int) *Model {
		s := &Stack{
			Grid: floorplan.NewGrid(nx, ny, 0.032, 0.032),
			Layers: []LayerSpec{
				{Name: "bottom", Thickness: 1e-3, Base: Copper},
				{Name: "top", Thickness: 1e-3, Base: Copper},
			},
		}
		m, err := NewModel(s, Environment{AmbientC: 25, BottomH: 10})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fine := build(32, 32)
	direct := build(16, 16)
	op := fine.newStencil()
	fine.fillOperator(&op, UniformTop(fine.Cells(), 5000, 30), 0)
	h, err := newHierarchy(fine, &op)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.levels) < 2 {
		t.Fatalf("expected a multi-level hierarchy, got %d levels", len(h.levels))
	}
	coarse := h.levels[1].st
	if coarse.nx != 16 || coarse.ny != 16 {
		t.Fatalf("coarse level is %dx%d, want 16x16", coarse.nx, coarse.ny)
	}
	for i, want := range direct.gx {
		if got := coarse.gx[i]; math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Fatalf("gx[%d] = %g, direct rediscretization %g", i, got, want)
		}
	}
	for i, want := range direct.gz {
		if got := coarse.gz[i]; math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Fatalf("gz[%d] = %g, direct rediscretization %g", i, got, want)
		}
	}
}

// TestSmoothRedBlackOrderIndependence: a red-black sweep must give the
// same result as relaxing all red cells from the frozen state and then
// all black cells — i.e. be independent of traversal order within a
// color. Verified by comparing against an explicit two-phase Jacobi-style
// reference.
func TestSmoothRedBlackOrderIndependence(t *testing.T) {
	m, power, bc := workspaceFixture(t)
	op := m.newStencil()
	m.fillOperator(&op, bc, 0)
	b := make(linalg.Vector, m.n)
	if err := m.rhsLayersInto(b, power, bc); err != nil {
		t.Fatal(err)
	}
	x := make(linalg.Vector, m.n)
	for i := range x {
		x[i] = 30 + float64(i%17)
	}
	want := x.Clone()
	// Reference: phase-wise update where each color is computed entirely
	// from the pre-phase state.
	s := op
	for _, color := range []int{0, 1} {
		snapshot := want.Clone()
		for l := 0; l < s.nl; l++ {
			for iy := 0; iy < s.ny; iy++ {
				for ix := 0; ix < s.nx; ix++ {
					if (ix+iy+l)&1 != color {
						continue
					}
					i := l*s.cells + iy*s.nx + ix
					su := b[i]
					if ix > 0 {
						su += s.gx[i-1] * snapshot[i-1]
					}
					if g := s.gx[i]; g != 0 {
						su += g * snapshot[i+1]
					}
					if iy > 0 {
						su += s.gy[i-s.nx] * snapshot[i-s.nx]
					}
					if g := s.gy[i]; g != 0 {
						su += g * snapshot[i+s.nx]
					}
					if l > 0 {
						su += s.gz[i-s.cells] * snapshot[i-s.cells]
					}
					if l < s.nl-1 {
						su += s.gz[i] * snapshot[i+s.cells]
					}
					want[i] = su * s.invDiag[i]
				}
			}
		}
	}
	s.Smooth(b, x, false)
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("red-black sweep differs from phase-wise reference at %d: %v vs %v", i, x[i], want[i])
		}
	}
}
