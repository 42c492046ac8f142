package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// denseOperator adapts a Dense matrix to the Operator interface for tests.
type denseOperator struct{ m *Dense }

func (d denseOperator) Apply(x, y Vector) { d.m.MulVec(x, y) }
func (d denseOperator) Size() int         { return d.m.Rows }

// laplace1D is a 1-D Poisson stencil operator with Dirichlet boundaries.
type laplace1D struct{ n int }

func (l laplace1D) Size() int { return l.n }

func (l laplace1D) Apply(x, y Vector) {
	for i := 0; i < l.n; i++ {
		s := 2 * x[i]
		if i > 0 {
			s -= x[i-1]
		}
		if i < l.n-1 {
			s -= x[i+1]
		}
		y[i] = s
	}
}

func poissonRHS(n int, want Vector) Vector {
	b := make(Vector, n)
	for i := 0; i < n; i++ {
		b[i] = 2 * want[i]
		if i > 0 {
			b[i] -= want[i-1]
		}
		if i < n-1 {
			b[i] -= want[i+1]
		}
	}
	return b
}

func TestCGPoisson(t *testing.T) {
	n := 200
	want := make(Vector, n)
	for i := range want {
		want[i] = math.Sin(float64(i) * 0.1)
	}
	op := laplace1D{n}
	b := poissonRHS(n, want)
	x := make(Vector, n)
	res, err := CGWith(op, b, x, CGOptions{Tol: 1e-10}, &CGWorkspace{})
	if err != nil {
		t.Fatalf("CG failed after %d iters, res %g: %v", res.Iterations, res.Residual, err)
	}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-6) {
			t.Fatalf("x[%d]=%v want %v", i, x[i], want[i])
		}
	}
}

func TestCGPreconditioned(t *testing.T) {
	n := 120
	op := laplace1D{n}
	want := make(Vector, n)
	for i := range want {
		want[i] = float64(i%7) - 3
	}
	b := poissonRHS(n, want)
	inv := make(Vector, n)
	inv.Fill(0.5) // diag of the stencil is 2
	x := make(Vector, n)
	res, err := CGWith(op, b, x, CGOptions{Tol: 1e-10, Precond: &DiagonalPreconditioner{InvDiag: inv}}, &CGWorkspace{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > n {
		t.Fatalf("preconditioned CG too slow: %d iterations", res.Iterations)
	}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-6) {
			t.Fatalf("x[%d]=%v want %v", i, x[i], want[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	op := laplace1D{10}
	x := make(Vector, 10)
	x.Fill(3)
	res, err := CGWith(op, make(Vector, 10), x, CGOptions{}, &CGWorkspace{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || x.NormInf() != 0 {
		t.Fatalf("zero RHS should produce zero solution immediately, got %v after %d", x, res.Iterations)
	}
}

func TestCGNonConvergenceBudget(t *testing.T) {
	n := 400
	op := laplace1D{n}
	want := make(Vector, n)
	for i := range want {
		want[i] = math.Cos(float64(i) * 0.05)
	}
	b := poissonRHS(n, want)
	x := make(Vector, n)
	_, err := CGWith(op, b, x, CGOptions{Tol: 1e-14, MaxIter: 3}, &CGWorkspace{})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("expected ErrNotConverged with tiny budget, got %v", err)
	}
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("expected a *SolveError diagnostic, got %T: %v", err, err)
	}
	if se.Cause != CauseMaxIter || se.Iterations != 3 {
		t.Fatalf("expected maxiter after 3 iterations, got %+v", se)
	}
}

func TestCGMatchesLUOnRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(20)
		// Build SPD matrix A = M^T M + n·I.
		m := NewDense(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += m.At(k, i) * m.At(k, j)
				}
				a.Set(i, j, s)
			}
			a.Add(i, i, float64(n))
		}
		b := make(Vector, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		luX, err := SolveDense(a, b)
		if err != nil {
			t.Fatal(err)
		}
		cgX := make(Vector, n)
		if _, err := CGWith(denseOperator{a}, b, cgX, CGOptions{Tol: 1e-12, MaxIter: 50 * n}, &CGWorkspace{}); err != nil {
			t.Fatal(err)
		}
		for i := range luX {
			if !almostEqual(cgX[i], luX[i], 1e-6) {
				t.Fatalf("trial %d: CG[%d]=%v LU=%v", trial, i, cgX[i], luX[i])
			}
		}
	}
}

func TestBisect(t *testing.T) {
	cases := []struct {
		name     string
		f        func(float64) float64
		lo, hi   float64
		want     float64
		wantOK   bool
		tol      float64 // comparison tolerance on the root (0 = exact)
		maxIter  int
		interval float64 // bisection interval tolerance
	}{
		{
			name: "bracketed sqrt2",
			f:    func(x float64) float64 { return x*x - 2 },
			lo:   0, hi: 2, want: math.Sqrt2, wantOK: true, tol: 1e-9,
			maxIter: 200, interval: 1e-12,
		},
		{
			name: "root at lo endpoint",
			f:    func(x float64) float64 { return x },
			lo:   0, hi: 1, want: 0, wantOK: true,
			maxIter: 50, interval: 1e-9,
		},
		{
			name: "root at hi endpoint",
			f:    func(x float64) float64 { return x - 1 },
			lo:   0, hi: 1, want: 1, wantOK: true,
			maxIter: 50, interval: 1e-9,
		},
		{
			name: "no bracket, lo closer",
			f:    func(x float64) float64 { return x + 10 },
			lo:   0, hi: 1, want: 0, wantOK: false,
			maxIter: 50, interval: 1e-9,
		},
		{
			name: "no bracket, hi closer",
			f:    func(x float64) float64 { return 10 - x },
			lo:   0, hi: 1, want: 1, wantOK: false,
			maxIter: 50, interval: 1e-9,
		},
		{
			name: "no bracket, tie prefers lo",
			f:    func(x float64) float64 { return x*x + 1 }, // |f(-1)| == |f(1)| == 2
			lo:   -1, hi: 1, want: -1, wantOK: false,
			maxIter: 50, interval: 1e-9,
		},
		{
			name: "negative-slope bracket",
			f:    func(x float64) float64 { return 1 - x*x },
			lo:   0, hi: 3, want: 1, wantOK: true, tol: 1e-8,
			maxIter: 100, interval: 1e-10,
		},
		{
			name: "iteration budget exhausted mid-bracket",
			f:    func(x float64) float64 { return x - 0.7 },
			lo:   0, hi: 1, want: 0.7, wantOK: true, tol: 0.3,
			maxIter: 2, interval: 1e-12,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, ok := Bisect(c.f, c.lo, c.hi, c.interval, c.maxIter)
			if ok != c.wantOK {
				t.Fatalf("ok = %v, want %v", ok, c.wantOK)
			}
			if c.tol == 0 {
				if got != c.want {
					t.Fatalf("root = %v, want exactly %v", got, c.want)
				}
			} else if !almostEqual(got, c.want, c.tol) {
				t.Fatalf("root = %v, want %v ± %g", got, c.want, c.tol)
			}
		})
	}
}

// countingOperator wraps an Operator and counts Apply invocations, to pin
// down the CG work accounting.
type countingOperator struct {
	Operator
	applies int
}

func (c *countingOperator) Apply(x, y Vector) {
	c.applies++
	c.Operator.Apply(x, y)
}

// TestCGAppliesAccounting: CGResult.Applies must equal the true number of
// operator applications — one initial residual plus one per iteration —
// and the hoisted convergence check must not add extra applies.
func TestCGAppliesAccounting(t *testing.T) {
	n := 150
	want := make(Vector, n)
	for i := range want {
		want[i] = math.Sin(float64(i) * 0.21)
	}
	op := &countingOperator{Operator: laplace1D{n}}
	b := poissonRHS(n, want)
	x := make(Vector, n)
	res, err := CGWith(op, b, x, CGOptions{Tol: 1e-10}, &CGWorkspace{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applies != op.applies {
		t.Fatalf("reported %d applies, operator saw %d", res.Applies, op.applies)
	}
	if res.Applies != res.Iterations+1 {
		t.Fatalf("applies = %d, want iterations+1 = %d", res.Applies, res.Iterations+1)
	}
	// A converged initial guess must cost exactly the initial residual.
	op.applies = 0
	res, err = CGWith(op, b, x, CGOptions{Tol: 1e-10}, &CGWorkspace{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || res.Applies != 1 || op.applies != 1 {
		t.Fatalf("warm-started solve: %+v with %d operator applies, want 0 iterations / 1 apply", res, op.applies)
	}
}

func TestBisectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := rng.Float64()*10 - 5
		g := func(x float64) float64 { return x - target }
		root, ok := Bisect(g, -6, 6, 1e-10, 100)
		return ok && math.Abs(root-target) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTable1D(t *testing.T) {
	tab := MustTable1D([]float64{0, 1, 2}, []float64{10, 20, 40})
	cases := []struct{ x, want float64 }{
		{-1, 10}, {0, 10}, {0.5, 15}, {1, 20}, {1.5, 30}, {2, 40}, {3, 40},
	}
	for _, c := range cases {
		if got := tab.At(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("At(%v)=%v want %v", c.x, got, c.want)
		}
	}
	if tab.Min() != 0 || tab.Max() != 2 {
		t.Fatalf("range = [%v %v]", tab.Min(), tab.Max())
	}
	if got := tab.At(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("At(NaN)=%v want NaN", got)
	}
}

func TestTable1DInverse(t *testing.T) {
	tab := MustTable1D([]float64{0, 1, 2}, []float64{10, 20, 40})
	inv, err := tab.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if got := inv.At(30); !almostEqual(got, 1.5, 1e-12) {
		t.Fatalf("inverse At(30)=%v want 1.5", got)
	}
	dec := MustTable1D([]float64{0, 1, 2}, []float64{40, 20, 10})
	invDec, err := dec.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if got := invDec.At(15); !almostEqual(got, 1.5, 1e-12) {
		t.Fatalf("decreasing inverse At(15)=%v want 1.5", got)
	}
	if _, err := MustTable1D([]float64{0, 1, 2}, []float64{1, 5, 3}).Inverse(); err == nil {
		t.Fatal("non-monotonic inverse should fail")
	}
}

func TestTable1DErrors(t *testing.T) {
	if _, err := NewTable1D([]float64{1, 1}, []float64{0, 0}); err == nil {
		t.Fatal("non-increasing xs should error")
	}
	if _, err := NewTable1D(nil, nil); err == nil {
		t.Fatal("empty table should error")
	}
	if _, err := NewTable1D([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestClampLerp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
	if Lerp(10, 20, 0.25) != 12.5 {
		t.Fatal("Lerp wrong")
	}
}

// Property: interpolation is monotone for monotone tables.
func TestTableMonotoneProperty(t *testing.T) {
	tab := MustTable1D([]float64{0, 1, 3, 7}, []float64{0, 2, 3, 11})
	f := func(a, b float64) bool {
		x1 := Clamp(math.Abs(a), 0, 7)
		x2 := Clamp(math.Abs(b), 0, 7)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return tab.At(x1) <= tab.At(x2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCGWithMatchesCG: a workspace holding another system's scratch must
// solve bit-identically to a fresh one — the workspace only changes where
// scratch lives.
func TestCGWithMatchesCG(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	want := make(Vector, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	op := laplace1D{n: n}
	b := poissonRHS(n, want)

	x1 := make(Vector, n)
	res1, err := CGWith(op, b, x1, CGOptions{Tol: 1e-12}, &CGWorkspace{})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the workspace with a larger solve, then reuse it.
	ws := &CGWorkspace{}
	big := make(Vector, 2*n)
	for i := range big {
		big[i] = rng.NormFloat64()
	}
	if _, err := CGWith(laplace1D{n: 2 * n}, poissonRHS(2*n, big), make(Vector, 2*n), CGOptions{Tol: 1e-12}, ws); err != nil {
		t.Fatal(err)
	}
	x2 := make(Vector, n)
	res2, err := CGWith(op, b, x2, CGOptions{Tol: 1e-12}, ws)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res1 {
		t.Fatalf("reused workspace changed the result: %+v vs %+v", res2, res1)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("reused-workspace solution differs at %d: %v vs %v", i, x2[i], x1[i])
		}
	}
}

// TestCGWithZeroAllocs: after warm-up, a workspace-backed CG solve must
// not touch the heap.
func TestCGWithZeroAllocs(t *testing.T) {
	const n = 128
	rng := rand.New(rand.NewSource(11))
	want := make(Vector, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	op := laplace1D{n: n}
	b := poissonRHS(n, want)
	x := make(Vector, n)
	ws := &CGWorkspace{}
	inv := make(Vector, n)
	inv.Fill(0.5)
	pre := DiagonalPreconditioner{InvDiag: inv}
	opts := CGOptions{Tol: 1e-10, Precond: &pre}
	solve := func() {
		x.Fill(0)
		if _, err := CGWith(op, b, x, opts, ws); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm-up
	if allocs := testing.AllocsPerRun(20, solve); allocs != 0 {
		t.Fatalf("CGWith allocated %.1f times per solve, want 0", allocs)
	}
}
