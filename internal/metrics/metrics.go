// Package metrics computes the thermal-map statistics the paper reports:
// hot-spot temperature θmax, average θavg, the maximum spatial gradient
// ∇θmax in °C/mm, over whole die and package maps or masked regions.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
)

// MapStats summarizes a temperature map (all temperatures in °C).
type MapStats struct {
	MaxC  float64
	MinC  float64
	MeanC float64
	// MaxGradCPerMM is the paper's ∇θmax: the largest temperature
	// difference between adjacent cells divided by the cell pitch, °C/mm.
	MaxGradCPerMM float64
	// Cells is the number of cells included (after masking).
	Cells int
}

// Analyze computes statistics over the whole map.
func Analyze(grid floorplan.Grid, temps []float64) (MapStats, error) {
	return AnalyzeMasked(grid, temps, nil)
}

// AnalyzeMasked computes statistics over cells where mask is true. A nil
// mask includes every cell. Gradients are evaluated only between two
// included cells.
func AnalyzeMasked(grid floorplan.Grid, temps []float64, mask []bool) (MapStats, error) {
	if len(temps) != grid.Cells() {
		return MapStats{}, fmt.Errorf("metrics: %d temps for %d cells", len(temps), grid.Cells())
	}
	if mask != nil && len(mask) != grid.Cells() {
		return MapStats{}, fmt.Errorf("metrics: %d mask entries for %d cells", len(mask), grid.Cells())
	}
	in := func(i int) bool { return mask == nil || mask[i] }
	st := MapStats{MaxC: math.Inf(-1), MinC: math.Inf(1)}
	var sum float64
	for iy := 0; iy < grid.NY; iy++ {
		for ix := 0; ix < grid.NX; ix++ {
			i := grid.Index(ix, iy)
			if !in(i) {
				continue
			}
			t := temps[i]
			st.Cells++
			sum += t
			if t > st.MaxC {
				st.MaxC = t
			}
			if t < st.MinC {
				st.MinC = t
			}
			if ix+1 < grid.NX {
				j := grid.Index(ix+1, iy)
				if in(j) {
					if g := math.Abs(t-temps[j]) / (grid.DX * 1e3); g > st.MaxGradCPerMM {
						st.MaxGradCPerMM = g
					}
				}
			}
			if iy+1 < grid.NY {
				j := grid.Index(ix, iy+1)
				if in(j) {
					if g := math.Abs(t-temps[j]) / (grid.DY * 1e3); g > st.MaxGradCPerMM {
						st.MaxGradCPerMM = g
					}
				}
			}
		}
	}
	if st.Cells == 0 {
		return MapStats{}, fmt.Errorf("metrics: mask excludes every cell")
	}
	st.MeanC = sum / float64(st.Cells)
	return st, nil
}

// RectMask returns a mask selecting cells whose centers fall inside rect.
func RectMask(grid floorplan.Grid, rect floorplan.Rect) []bool {
	mask := make([]bool, grid.Cells())
	for iy := 0; iy < grid.NY; iy++ {
		for ix := 0; ix < grid.NX; ix++ {
			cx, cy := grid.CellCenter(ix, iy)
			mask[grid.Index(ix, iy)] = rect.Contains(cx, cy)
		}
	}
	return mask
}
