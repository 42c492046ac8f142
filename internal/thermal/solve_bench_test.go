package thermal

// Solve-family micro-benchmarks of the workspace path:
//
//	go test ./internal/thermal -bench=Solve -benchmem
//
// "workspace" reuses one Workspace cold-started per solve;
// "workspace-warm" additionally seeds each solve from the previous
// converged field — the session steady-state.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

func benchModel(b *testing.B) (*Model, [][]float64, TopBoundary) {
	b.Helper()
	m, err := NewModel(NewXeonStack(DefaultXeonStackConfig()), DefaultEnvironment())
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, m.Cells())
	for i := range p {
		p[i] = 0.05 + 0.002*float64(i%13)
	}
	return m, [][]float64{p}, UniformTop(m.Cells(), 6000, 32)
}

func BenchmarkSteadySolve(b *testing.B) {
	m, power, bc := benchModel(b)
	b.Run("workspace", func(b *testing.B) {
		w := m.NewWorkspace()
		f := w.FieldA()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workspace-warm", func(b *testing.B) {
		w := m.NewWorkspace()
		f := w.FieldA()
		if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.SteadySolveLayersInto(f, f, power, bc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSteadySolveSize compares the solvers across grid resolutions
// on cold steady solves — the scaling picture behind the multigrid
// tentpole — and, per solver, across intra-solve thread counts (the
// threads=N sub-runs): the same solve fanned out over the workspace's
// worker team, byte-identical by contract and measured here for the
// speedup-vs-serial trajectory. Jacobi-CG's
// time per solve grows superlinearly in the cell count; MG-PCG stays a
// fixed small number of cycles, so the gap widens with every doubling.
func BenchmarkSteadySolveSize(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		m, power, bc := xvalModel(b, floorplan.XeonE5Package(), n, n)
		for _, s := range []Solver{SolverCG, SolverMGPCG} {
			for _, threads := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%d/%s/threads=%d", n, s, threads), func(b *testing.B) {
					w := m.NewWorkspace()
					w.SetSolver(s)
					w.SetThreads(threads)
					defer w.Close()
					f := w.FieldA()
					if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil { // warm buffers
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFusedCGIteration isolates the per-iteration cost of the fused
// CG vector kernels on the 128×128 thermal operator: a fixed 32-iteration
// budget at an unreachable tolerance, so ns/op ≈ 32 CG iterations of
// stencil apply + fused vector work with no convergence noise.
// ReportAllocs doubles as the zero-alloc gate for the fused path.
func BenchmarkFusedCGIteration(b *testing.B) {
	m, power, bc := xvalModel(b, floorplan.XeonE5Package(), 128, 128)
	w := m.NewWorkspace()
	defer w.Close()
	m.fillOperator(&w.op, bc, 0, 0)
	if err := m.rhsLayersInto(w.rhs, power, bc); err != nil {
		b.Fatal(err)
	}
	x := make(linalg.Vector, m.n)
	opt := linalg.CGOptions{Tol: 1e-300, MaxIter: 32, Precond: &w.pre}
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			w.SetThreads(threads)
			x.Fill(0)
			if _, err := linalg.CGWith(&w.op, w.rhs, x, opt, &w.cg); err != nil && !errors.Is(err, linalg.ErrNotConverged) {
				b.Fatal(err) // warm-up
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Fill(0)
				if _, err := linalg.CGWith(&w.op, w.rhs, x, opt, &w.cg); err != nil && !errors.Is(err, linalg.ErrNotConverged) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMGVCycle times one warm V-cycle on a 128×128 hierarchy — the
// unit of work MG-PCG spends per iteration. ReportAllocs doubles as the
// allocation-regression guard for the cycle itself.
func BenchmarkMGVCycle(b *testing.B) {
	m, power, bc := xvalModel(b, floorplan.XeonE5Package(), 128, 128)
	w := m.NewWorkspace()
	w.SetSolver(SolverMGPCG)
	f := w.FieldA()
	if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil { // build + warm the hierarchy
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.hier.mg.Cycle(w.rhs, f.T)
	}
}

func BenchmarkTransientSolveStep(b *testing.B) {
	m, power, bc := benchModel(b)
	b.Run("workspace", func(b *testing.B) {
		w := m.NewWorkspace()
		f := w.FieldA()
		f.T.Fill(30)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.StepTransientLayersInto(f, f, 0.25, power, bc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
