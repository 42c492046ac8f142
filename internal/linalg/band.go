package linalg

import "math"

// Banded is a symmetric operator that can list the lower half of its
// matrix band. The coarsest level of a Multigrid must implement it: the
// V-cycle solves that level exactly by a banded Cholesky factorization.
type Banded interface {
	Operator
	// Bandwidth returns the half-bandwidth w: A[i][j] = 0 whenever
	// |i−j| > w.
	Bandwidth() int
	// LowerBand overwrites row (length w+1) with A[i][i−w..i], the
	// diagonal last. Entries left of column 0 are written as zero.
	LowerBand(i int, row Vector)
}

// bandCholesky is the Cholesky factor L (A = L·Lᵀ) of a symmetric
// positive-definite banded operator, stored by rows in n×(w+1) floats:
// l[i·(w+1)+k] holds L[i][i−w+k], so the diagonal closes each row. The
// storage is sized once; factor and solve allocate nothing.
type bandCholesky struct {
	a    Banded
	n, w int
	l    Vector
	// bad marks a factorization that met a non-positive or NaN pivot.
	bad bool
}

func newBandCholesky(a Banded) *bandCholesky {
	n, w := a.Size(), a.Bandwidth()
	return &bandCholesky{a: a, n: n, w: w, l: make(Vector, n*(w+1))}
}

// factor recomputes rows from..n−1 of L from the operator's current
// band. Row i of L depends only on rows ≤ i of the operator, so when
// rows before from are unchanged since the last complete factorization
// the result is bit-identical to refactoring every row; after a failed
// one every row is refactored. A non-positive or NaN pivot means the
// matrix is not SPD: the factor is marked bad and every later solve
// returns NaN, which an enclosing CG reports as a CauseNaN *SolveError
// instead of iterating on garbage.
func (f *bandCholesky) factor(from int) {
	n, w, w1 := f.n, f.w, f.w+1
	if f.bad {
		from = 0
	}
	f.bad = false
	for i := max(from, 0); i < n; i++ {
		ri := f.l[i*w1 : (i+1)*w1]
		f.a.LowerBand(i, ri)
		j0 := max(0, i-w)
		for j := j0; j <= i; j++ {
			rj := f.l[j*w1 : (j+1)*w1]
			s := ri[j-i+w]
			for k := j0; k < j; k++ {
				s -= ri[k-i+w] * rj[k-j+w]
			}
			if j < i {
				ri[j-i+w] = s / rj[w]
				continue
			}
			if !(s > 0) {
				f.bad = true
				return
			}
			ri[w] = math.Sqrt(s)
		}
	}
}

// solve overwrites x with A⁻¹·b by forward substitution with L and back
// substitution with Lᵀ. b and x may alias.
func (f *bandCholesky) solve(b, x Vector) {
	if f.bad {
		x.Fill(math.NaN())
		return
	}
	n, w, w1 := f.n, f.w, f.w+1
	for i := 0; i < n; i++ {
		ri := f.l[i*w1 : (i+1)*w1]
		s := b[i]
		for k := max(0, i-w); k < i; k++ {
			s -= ri[k-i+w] * x[k]
		}
		x[i] = s / ri[w]
	}
	for i := n - 1; i >= 0; i-- {
		ri := f.l[i*w1 : (i+1)*w1]
		x[i] /= ri[w]
		v := x[i]
		for k := max(0, i-w); k < i; k++ {
			x[k] -= ri[k-i+w] * v
		}
	}
}
