package linalg

import (
	"fmt"
	"math"
	"sort"
)

// Table1D is a piecewise-linear interpolation table over strictly
// increasing abscissae. Queries outside the range clamp to the endpoints
// (property tables must never extrapolate wildly).
type Table1D struct {
	xs, ys []float64
}

// NewTable1D builds an interpolation table. xs must be strictly increasing
// and the slices must have equal nonzero length.
func NewTable1D(xs, ys []float64) (*Table1D, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("linalg: table needs equal nonzero lengths, got %d and %d", len(xs), len(ys))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("linalg: table abscissae not strictly increasing at %d (%g ≤ %g)", i, xs[i], xs[i-1])
		}
	}
	t := &Table1D{xs: append([]float64(nil), xs...), ys: append([]float64(nil), ys...)}
	return t, nil
}

// MustTable1D is NewTable1D that panics on error; for package-level tables.
func MustTable1D(xs, ys []float64) *Table1D {
	t, err := NewTable1D(xs, ys)
	if err != nil {
		panic(err)
	}
	return t
}

// At returns the interpolated value at x, clamped to the table range.
// A NaN query returns NaN: it fails both clamps, and the bracket search
// would otherwise index past the end of the table.
func (t *Table1D) At(x float64) float64 {
	if math.IsNaN(x) {
		return x
	}
	xs, ys := t.xs, t.ys
	if x <= xs[0] {
		return ys[0]
	}
	n := len(xs)
	if x >= xs[n-1] {
		return ys[n-1]
	}
	// sort.SearchFloat64s returns the first index with xs[i] >= x.
	i := sort.SearchFloat64s(xs, x)
	x0, x1 := xs[i-1], xs[i]
	y0, y1 := ys[i-1], ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// Inverse returns a table with the roles of x and y swapped. It requires
// the ys to be strictly monotonic; decreasing tables are reversed.
func (t *Table1D) Inverse() (*Table1D, error) {
	n := len(t.xs)
	inc, dec := true, true
	for i := 1; i < n; i++ {
		if t.ys[i] <= t.ys[i-1] {
			inc = false
		}
		if t.ys[i] >= t.ys[i-1] {
			dec = false
		}
	}
	switch {
	case inc:
		return NewTable1D(t.ys, t.xs)
	case dec:
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = t.ys[n-1-i]
			ys[i] = t.xs[n-1-i]
		}
		return NewTable1D(xs, ys)
	default:
		return nil, fmt.Errorf("linalg: table values not monotonic; cannot invert")
	}
}

// Min and Max return the abscissa range of the table.
func (t *Table1D) Min() float64 { return t.xs[0] }

// Max returns the largest abscissa of the table.
func (t *Table1D) Max() float64 { return t.xs[len(t.xs)-1] }

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Lerp linearly interpolates between a (t=0) and b (t=1).
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
