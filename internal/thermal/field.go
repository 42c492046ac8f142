package thermal

import (
	"fmt"

	"repro/internal/linalg"
)

// Field is a temperature solution over a model's unknowns (°C).
type Field struct {
	model *Model
	T     linalg.Vector
}

// Layer returns the temperature slice of one layer (length Cells()).
// The returned slice aliases the field; callers must not modify it.
func (f *Field) Layer(l int) []float64 {
	cells := f.model.cells
	return f.T[l*cells : (l+1)*cells]
}

// LayerByName returns the temperatures of the named layer.
func (f *Field) LayerByName(name string) ([]float64, error) {
	l := f.model.Stack.LayerIndex(name)
	if l < 0 {
		return nil, fmt.Errorf("thermal: no layer %q", name)
	}
	return f.Layer(l), nil
}

// At returns the temperature of cell (ix, iy) in layer l.
func (f *Field) At(l, ix, iy int) float64 {
	g := f.model.Stack.Grid
	return f.T[l*f.model.cells+g.Index(ix, iy)]
}

// Clone returns an independent copy of the field.
func (f *Field) Clone() *Field {
	return &Field{model: f.model, T: f.T.Clone()}
}

// Model returns the model the field was solved on.
func (f *Field) Model() *Model { return f.model }

// SampleAt returns the temperature of layer l at physical point (x, y),
// clamped into the grid.
func (f *Field) SampleAt(l int, x, y float64) float64 {
	g := f.model.Stack.Grid
	ix, iy := g.CellAt(x, y)
	return f.At(l, ix, iy)
}

// TotalHeatToTop integrates the heat leaving through the top boundary (W)
// for the given boundary condition — used to verify energy conservation.
func (f *Field) TotalHeatToTop(bc TopBoundary) float64 {
	m := f.model
	top := (m.nl - 1) * m.cells
	var q float64
	for c := 0; c < m.cells; c++ {
		if g := m.topG(bc, c); g != 0 {
			q += g * (f.T[top+c] - bc.TFluid[c])
		}
	}
	return q
}

// TopHeatPerCellInto returns the per-cell heat flow (W) leaving through
// the top boundary, which the thermosyphon's channel march consumes. It
// writes into dst, grown as needed and returned (nil allocates), and
// overwrites every element.
func (f *Field) TopHeatPerCellInto(dst []float64, bc TopBoundary) []float64 {
	m := f.model
	top := (m.nl - 1) * m.cells
	if cap(dst) < m.cells {
		dst = make([]float64, m.cells)
	}
	dst = dst[:m.cells]
	for c := 0; c < m.cells; c++ {
		if g := m.topG(bc, c); g != 0 {
			dst[c] = g * (f.T[top+c] - bc.TFluid[c])
		} else {
			dst[c] = 0
		}
	}
	return dst
}

// TotalHeatToBottom integrates heat leaving through the board-side path (W).
func (f *Field) TotalHeatToBottom() float64 {
	m := f.model
	var q float64
	for c := 0; c < m.cells; c++ {
		q += m.gBottom[c] * (f.T[c] - m.Env.AmbientC)
	}
	return q
}
