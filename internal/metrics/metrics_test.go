package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
)

func grid4() floorplan.Grid { return floorplan.NewGrid(4, 4, 4e-3, 4e-3) } // 1 mm cells

func TestAnalyzeBasics(t *testing.T) {
	g := grid4()
	temps := make([]float64, g.Cells())
	for i := range temps {
		temps[i] = 50
	}
	temps[g.Index(2, 2)] = 60
	st, err := Analyze(g, temps)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxC != 60 || st.MinC != 50 {
		t.Fatalf("max/min = %v/%v", st.MaxC, st.MinC)
	}
	wantMean := (15*50.0 + 60) / 16
	if math.Abs(st.MeanC-wantMean) > 1e-12 {
		t.Fatalf("mean = %v want %v", st.MeanC, wantMean)
	}
	// 10 °C across a 1 mm pitch.
	if math.Abs(st.MaxGradCPerMM-10) > 1e-9 {
		t.Fatalf("grad = %v want 10", st.MaxGradCPerMM)
	}
	if st.Cells != 16 {
		t.Fatalf("cells = %d", st.Cells)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	g := grid4()
	if _, err := Analyze(g, make([]float64, 3)); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := AnalyzeMasked(g, make([]float64, 16), make([]bool, 2)); err == nil {
		t.Fatal("mask mismatch must error")
	}
	if _, err := AnalyzeMasked(g, make([]float64, 16), make([]bool, 16)); err == nil {
		t.Fatal("empty mask must error")
	}
}

func TestAnalyzeMasked(t *testing.T) {
	g := grid4()
	temps := make([]float64, g.Cells())
	for i := range temps {
		temps[i] = 40
	}
	temps[g.Index(0, 0)] = 90 // excluded
	mask := make([]bool, g.Cells())
	for iy := 2; iy < 4; iy++ {
		for ix := 2; ix < 4; ix++ {
			mask[g.Index(ix, iy)] = true
		}
	}
	st, err := AnalyzeMasked(g, temps, mask)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxC != 40 || st.Cells != 4 {
		t.Fatalf("masked stats leaked: %+v", st)
	}
	// Gradient across mask boundary must not count.
	if st.MaxGradCPerMM != 0 {
		t.Fatalf("masked grad = %v", st.MaxGradCPerMM)
	}
}

func TestRectMask(t *testing.T) {
	g := grid4()
	mask := RectMask(g, floorplan.Rect{X: 0, Y: 0, W: 2e-3, H: 2e-3})
	var n int
	for _, b := range mask {
		if b {
			n++
		}
	}
	if n != 4 {
		t.Fatalf("rect mask selected %d cells, want 4", n)
	}
}

// Property: adding a constant to every cell shifts max/mean/min but leaves
// the gradient unchanged.
func TestShiftInvarianceProperty(t *testing.T) {
	g := grid4()
	f := func(seed int64, shiftRaw float64) bool {
		shift := math.Mod(shiftRaw, 50)
		if math.IsNaN(shift) {
			return true
		}
		temps := make([]float64, g.Cells())
		rng := seed
		for i := range temps {
			rng = rng*6364136223846793005 + 1442695040888963407
			temps[i] = 40 + float64((rng>>33)%2000)/100
		}
		a, err := Analyze(g, temps)
		if err != nil {
			return false
		}
		shifted := make([]float64, len(temps))
		for i := range temps {
			shifted[i] = temps[i] + shift
		}
		b, err := Analyze(g, shifted)
		if err != nil {
			return false
		}
		return math.Abs(a.MaxGradCPerMM-b.MaxGradCPerMM) < 1e-9 &&
			math.Abs((b.MaxC-a.MaxC)-shift) < 1e-9 &&
			math.Abs((b.MeanC-a.MeanC)-shift) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
