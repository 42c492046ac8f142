// Package linalg provides the hand-rolled numerical kernels used by the
// thermal and thermosyphon simulators: dense vectors and matrices, LU and
// tridiagonal direct solvers, and a preconditioned conjugate-gradient
// solver (diagonal or multigrid preconditioner) over abstract linear
// operators.
//
// The package deliberately uses only the standard library. The thermal
// solver operates on structured-grid stencils, so the iterative solvers
// accept an Operator interface instead of requiring an assembled sparse
// matrix; this keeps the hot path allocation-free.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a dense column vector of float64 values.
type Vector []float64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// NormInf returns the maximum absolute element of v (0 for an empty vector).
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// AXPY computes v = v + alpha*w in place. It panics if lengths differ.
func (v Vector) AXPY(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: AXPY length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// Scale multiplies every element of v by alpha in place.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Sub computes v = v - w in place. It panics if lengths differ.
func (v Vector) Sub(w Vector) { v.AXPY(-1, w) }

// Add computes v = v + w in place. It panics if lengths differ.
func (v Vector) Add(w Vector) { v.AXPY(1, w) }

// Max returns the maximum element of v. It panics on an empty vector.
func (v Vector) Max() float64 {
	if len(v) == 0 {
		panic("linalg: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum element of v. It panics on an empty vector.
func (v Vector) Min() float64 {
	if len(v) == 0 {
		panic("linalg: Min of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Mean returns the arithmetic mean of v (0 for an empty vector).
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ErrNotConverged is returned by iterative solvers that exhaust their
// iteration budget before reaching the requested tolerance.
var ErrNotConverged = errors.New("linalg: iterative solver did not converge")

// ErrSingular is returned by direct solvers when the system is singular
// to working precision.
var ErrSingular = errors.New("linalg: singular matrix")
