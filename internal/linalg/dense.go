package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense returns a zero-initialized rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimensions")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Add accumulates x into the element at row i, column j.
func (m *Dense) Add(i, j int, x float64) { m.Data[i*m.Cols+j] += x }

// Clone returns an independent copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes y = M·x. It panics on dimension mismatch.
func (m *Dense) MulVec(x, y Vector) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec dims %dx%d with x=%d y=%d", m.Rows, m.Cols, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
}

// LU holds an LU factorization with partial pivoting of a square matrix.
type LU struct {
	lu  *Dense
	piv []int
}

// FactorizeLU computes the LU factorization with partial pivoting of the
// square matrix m. m is not modified.
func FactorizeLU(m *Dense) (*LU, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: LU requires square matrix, got %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	lu := m.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest magnitude entry in column k.
		p, maxAbs := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk := lu.Data[k*n : (k+1)*n]
			rp := lu.Data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivot
			lu.Set(i, k, f)
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve solves A·x = b using the factorization. b is not modified.
func (f *LU) Solve(b Vector) (Vector, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: LU solve length %d for %dx%d system", len(b), n, n)
	}
	x := make(Vector, n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] -= s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] = (x[i] - s) / f.lu.At(i, i)
	}
	return x, nil
}

// SolveDense solves A·x = b for a dense square A via LU factorization.
func SolveDense(a *Dense, b Vector) (Vector, error) {
	f, err := FactorizeLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
