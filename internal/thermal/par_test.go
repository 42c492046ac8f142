package thermal

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// These tests pin the intra-solve parallelism contract at the thermal
// level: SetThreads never changes a byte of any kernel output or any
// solve, on every solver path. They run the parallel kernels for real,
// so `go test -race` doubles as the data-race gate for the banded
// stencil sweeps and the layer-slab transfers.

// parModel builds a deliberately odd-sized model (ragged worker bands,
// n above the parallel dispatch threshold) with a non-uniform power map
// and boundary.
func parModel(t testing.TB) (*Model, [][]float64, TopBoundary) {
	t.Helper()
	cfg := DefaultXeonStackConfig()
	cfg.NX, cfg.NY = 41, 33
	m, err := NewModel(NewXeonStack(cfg), DefaultEnvironment())
	if err != nil {
		t.Fatal(err)
	}
	if m.n < linalg.ParMin {
		t.Fatalf("fixture too small to exercise the parallel path: n=%d", m.n)
	}
	p := make([]float64, m.Cells())
	for i := range p {
		p[i] = 0.05 + 0.004*float64(i%23)
	}
	bc := UniformTop(m.Cells(), 6000, 32)
	for i := range bc.H {
		bc.H[i] += 35 * float64(i%11)
	}
	return m, [][]float64{p}, bc
}

// parField fills a deterministic non-trivial iterate.
func parField(n int) linalg.Vector {
	x := make(linalg.Vector, n)
	for i := range x {
		x[i] = 40 + 10*math.Sin(float64(i)*0.13)
	}
	return x
}

func vecsEqual(t *testing.T, what string, got, want linalg.Vector) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s differs at element %d: %x vs %x", what, i, got[i], want[i])
		}
	}
}

// TestStencilKernelsByteIdenticalAcrossThreads checks Apply, Residual,
// both red-black smoothing directions and the fused smooth+residual pass
// at several team widths against the serial sweep.
func TestStencilKernelsByteIdenticalAcrossThreads(t *testing.T) {
	m, power, bc := parModel(t)
	ref := m.NewWorkspace()
	b := make(linalg.Vector, m.n)
	if err := m.rhsLayersInto(b, power, bc); err != nil {
		t.Fatal(err)
	}
	m.fillOperator(&ref.op, bc, 0, 0)

	x := parField(m.n)
	wantY := make(linalg.Vector, m.n)
	ref.op.Apply(x, wantY)
	wantR := make(linalg.Vector, m.n)
	ref.op.Residual(b, x, wantR)
	wantFwd := x.Clone()
	ref.op.Smooth(b, wantFwd, false)
	wantRev := x.Clone()
	ref.op.Smooth(b, wantRev, true)
	wantSRx := x.Clone()
	wantSRr := make(linalg.Vector, m.n)
	ref.op.SmoothResidual(b, wantSRx, wantSRr)

	for _, threads := range []int{2, 3, 8} {
		w := m.NewWorkspace()
		w.SetThreads(threads)
		m.fillOperator(&w.op, bc, 0, 0)
		y := make(linalg.Vector, m.n)
		w.op.Apply(x, y)
		vecsEqual(t, "Apply", y, wantY)
		r := make(linalg.Vector, m.n)
		w.op.Residual(b, x, r)
		vecsEqual(t, "Residual", r, wantR)
		fwd := x.Clone()
		w.op.Smooth(b, fwd, false)
		vecsEqual(t, "Smooth forward", fwd, wantFwd)
		rev := x.Clone()
		w.op.Smooth(b, rev, true)
		vecsEqual(t, "Smooth reverse", rev, wantRev)
		srx := x.Clone()
		srr := make(linalg.Vector, m.n)
		w.op.SmoothResidual(b, srx, srr)
		vecsEqual(t, "SmoothResidual iterate", srx, wantSRx)
		vecsEqual(t, "SmoothResidual residual", srr, wantSRr)
		w.Close()
	}
}

// TestFusedSmoothResidualMatchesUnfused is the linalg.Smoother contract:
// SmoothResidual must produce exactly the bytes of Smooth(b, x, false)
// followed by Residual(b, x, r) — serial and at several team widths.
func TestFusedSmoothResidualMatchesUnfused(t *testing.T) {
	m, power, bc := parModel(t)
	w := m.NewWorkspace()
	m.fillOperator(&w.op, bc, 0, 0)
	b := make(linalg.Vector, m.n)
	if err := m.rhsLayersInto(b, power, bc); err != nil {
		t.Fatal(err)
	}
	x0 := parField(m.n)
	wantX := x0.Clone()
	w.op.Smooth(b, wantX, false)
	wantR := make(linalg.Vector, m.n)
	w.op.Residual(b, wantX, wantR)

	for _, threads := range []int{1, 3, 8} {
		w.SetThreads(threads)
		x := x0.Clone()
		r := make(linalg.Vector, m.n)
		w.op.SmoothResidual(b, x, r)
		vecsEqual(t, "fused iterate", x, wantX)
		vecsEqual(t, "fused residual", r, wantR)
	}
	w.Close()
}

// TestSolvesByteIdenticalAcrossThreads runs the steady and transient
// paths under every solver at several thread counts and demands the
// fields match the serial solve bit for bit — the workspace-level form of
// the determinism contract, covering the fused CG kernels, the parallel
// stencil and the layer-slab multigrid transfers together.
func TestSolvesByteIdenticalAcrossThreads(t *testing.T) {
	m, power, bc := parModel(t)
	for _, solver := range []Solver{SolverCG, SolverMGPCG} {
		ref := m.NewWorkspace()
		ref.SetSolver(solver)
		steady := ref.FieldA()
		if err := ref.SteadySolveLayersInto(steady, nil, power, bc); err != nil {
			t.Fatalf("%v serial steady: %v", solver, err)
		}
		step := m.NewField()
		step.T.Fill(30)
		if err := ref.StepTransientLayersInto(step, step, 0.25, power, bc); err != nil {
			t.Fatalf("%v serial transient: %v", solver, err)
		}
		for _, threads := range []int{2, 4, 8} {
			w := m.NewWorkspace()
			w.SetSolver(solver)
			w.SetThreads(threads)
			if got := w.Threads(); got != threads {
				t.Fatalf("Threads() = %d, want %d", got, threads)
			}
			f := w.FieldA()
			if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil {
				t.Fatalf("%v steady @%d threads: %v", solver, threads, err)
			}
			vecsEqual(t, "steady field", f.T, steady.T)
			g := m.NewField()
			g.T.Fill(30)
			if err := w.StepTransientLayersInto(g, g, 0.25, power, bc); err != nil {
				t.Fatalf("%v transient @%d threads: %v", solver, threads, err)
			}
			vecsEqual(t, "transient field", g.T, step.T)
			w.Close()
		}
	}
}

// TestWorkspaceThreadsZeroAllocs extends the PR 2 zero-alloc gate to the
// parallel path: a warm workspace solving with a worker team must stay
// heap-silent — the team dispatch itself allocates nothing.
func TestWorkspaceThreadsZeroAllocs(t *testing.T) {
	m, power, bc := parModel(t)
	for _, solver := range []Solver{SolverCG, SolverMGPCG} {
		w := m.NewWorkspace()
		w.SetSolver(solver)
		w.SetThreads(4)
		f := w.FieldA()
		solve := func() {
			if err := w.SteadySolveLayersInto(f, f, power, bc); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil { // warm-up
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
			t.Fatalf("%v: threaded steady solve allocated %.1f times per run, want 0", solver, allocs)
		}
		w.Close()
	}
}

// TestSetThreadsLifecycle covers the knob's edges: re-setting the same
// width is a no-op, resizing swaps teams, Close leaves a serial but
// usable workspace, and GOMAXPROCS selection (n <= 0) resolves to at
// least one thread.
func TestSetThreadsLifecycle(t *testing.T) {
	m, power, bc := parModel(t)
	w := m.NewWorkspace()
	w.SetThreads(2)
	w.SetThreads(2) // no-op path
	w.SetThreads(3) // resize swaps the team
	f := w.FieldA()
	if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil {
		t.Fatal(err)
	}
	ref := f.T.Clone()
	w.Close()
	if got := w.Threads(); got != 1 {
		t.Fatalf("Threads() after Close = %d, want 1", got)
	}
	if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil {
		t.Fatal(err)
	}
	vecsEqual(t, "post-Close solve", f.T, ref)
	w.SetThreads(0)
	if w.Threads() < 1 {
		t.Fatalf("SetThreads(0) resolved to %d", w.Threads())
	}
	w.Close()
}

// TestThreadScalingSpeedup asserts the PR's wall-clock acceptance
// criterion — ≥2.5× on the 256×256 steady solve at 8 threads vs serial —
// where it is physically meaningful: the test skips on hardware with
// fewer than 8 ways (including 2-core CI runners), so the assertion runs
// exactly on the machines the criterion describes. Best-of-5 timing per
// configuration resists scheduler noise. BenchmarkSteadySolveSize
// measures the same ratio at any width; the end-to-end benchmark that
// gates changes is `bash bench/run.sh` (see bench/README.md).
func TestThreadScalingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 8 || runtime.GOMAXPROCS(0) < 8 {
		t.Skipf("needs >=8-way hardware (NumCPU=%d, GOMAXPROCS=%d)",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	m, power, bc := xvalModel(t, floorplan.XeonE5Package(), 256, 256)
	solveTime := func(threads int) time.Duration {
		w := m.NewWorkspace()
		defer w.Close()
		w.SetSolver(SolverMGPCG)
		w.SetThreads(threads)
		f := w.FieldA()
		if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil { // warm-up
			t.Fatal(err)
		}
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if err := w.SteadySolveLayersInto(f, nil, power, bc); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial := solveTime(1)
	parallel := solveTime(8)
	speedup := float64(serial) / float64(parallel)
	t.Logf("256×256 mgpcg steady solve: serial %v, 8 threads %v (%.2fx)", serial, parallel, speedup)
	if speedup < 2.5 {
		t.Errorf("8-thread speedup %.2fx, want >= 2.5x", speedup)
	}
}

// BenchmarkStencilApply measures the 7-point operator application across
// grid sizes and team widths — the innermost kernel of every solver.
// ReportAllocs doubles as the zero-alloc gate for team dispatch.
func BenchmarkStencilApply(b *testing.B) {
	for _, n := range []int{128, 256} {
		m, _, bc := xvalModel(b, floorplan.XeonE5Package(), n, n)
		w := m.NewWorkspace()
		m.fillOperator(&w.op, bc, 0, 0)
		x := parField(m.n)
		y := make(linalg.Vector, m.n)
		for _, threads := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%d/threads=%d", n, threads), func(b *testing.B) {
				w.SetThreads(threads)
				w.op.Apply(x, y) // warm the team
				b.ReportAllocs()
				b.SetBytes(int64(m.n * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.op.Apply(x, y)
				}
			})
		}
		w.Close()
	}
}
