package thermal

import (
	"math"
	"testing"

	"repro/internal/floorplan"
)

func TestSlabResistanceAgainstSolver(t *testing.T) {
	// Uniformly heated stack: the solver's mean bottom temperature must
	// match the 1-D series-resistance solution (lateral conduction is
	// irrelevant when everything is uniform).
	s := smallStack(10, 10)
	m, err := NewModel(s, Environment{AmbientC: 25, BottomH: 0})
	if err != nil {
		t.Fatal(err)
	}
	const (
		q  = 60.0
		h  = 6000.0
		tf = 35.0
	)
	area := 0.02 * 0.02
	p := make([]float64, m.Cells())
	for i := range p {
		p[i] = q / float64(m.Cells())
	}
	sol, err := solveSteady(m, [][]float64{p}, UniformTop(m.Cells(), h, tf))
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, temp := range sol.Layer(0) {
		mean += temp
	}
	mean /= float64(m.Cells())

	want, err := s.OneDSlabTemp(q, area, h, tf)
	if err != nil {
		t.Fatal(err)
	}
	// The FV model injects at cell centers (half-layer offset), so allow
	// half the first layer's conduction drop as tolerance.
	tol := q / area * s.Layers[0].Thickness / s.Layers[0].Base.K / 2 * 1.1
	if math.Abs(mean-want) > tol+0.2 {
		t.Fatalf("solver mean %.3f vs analytic %.3f (tol %.3f)", mean, want, tol)
	}
}

func TestSlabResistanceErrors(t *testing.T) {
	s := smallStack(4, 4)
	if _, err := s.SlabResistance(0, 100); err == nil {
		t.Fatal("zero area must error")
	}
	if _, err := s.SlabResistance(1e-4, 0); err == nil {
		t.Fatal("zero film must error")
	}
}

func TestSpreadingResistancePlausible(t *testing.T) {
	// Die-sized source (equiv. radius of 18×13.7 mm) on the package-sized
	// spreader: the spreading term should be small but positive for
	// copper, and grow when conductivity drops.
	a := EquivalentRadius(18e-3, 13.7e-3)
	b := EquivalentRadius(38e-3, 30e-3)
	cu, err := SpreadingResistance(a, b, 3e-3, 390, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if cu <= 0 || cu > 0.5 {
		t.Fatalf("copper spreading resistance %.4f K/W implausible", cu)
	}
	al, err := SpreadingResistance(a, b, 3e-3, 200, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if al <= cu {
		t.Fatal("worse conductor must spread worse")
	}
	small, err := SpreadingResistance(a/3, b, 3e-3, 390, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if small <= cu {
		t.Fatal("smaller source must have higher spreading resistance")
	}
}

func TestSpreadingResistanceValidation(t *testing.T) {
	if _, err := SpreadingResistance(2, 1, 1, 1, 1); err == nil {
		t.Fatal("source larger than plate must error")
	}
	if _, err := SpreadingResistance(0, 1, 1, 1, 1); err == nil {
		t.Fatal("zero source must error")
	}
}

func TestEquivalentRadius(t *testing.T) {
	r := EquivalentRadius(2, 2)
	if math.Abs(math.Pi*r*r-4) > 1e-12 {
		t.Fatalf("area mismatch: %v", math.Pi*r*r)
	}
}

func TestTimeConstantBoundsTransient(t *testing.T) {
	s := smallStack(6, 6)
	tau, err := s.TimeConstant(4000)
	if err != nil {
		t.Fatal(err)
	}
	if tau <= 0 || tau > 60 {
		t.Fatalf("time constant %v s implausible for mm-scale copper", tau)
	}
	// After 5τ the transient must be within 1% of steady.
	m, _ := NewModel(s, Environment{AmbientC: 25, BottomH: 0})
	p := make([]float64, m.Cells())
	for i := range p {
		p[i] = 0.5
	}
	bc := UniformTop(m.Cells(), 4000, 35)
	pw := [][]float64{p}
	steady, err := solveSteady(m, pw, bc)
	if err != nil {
		t.Fatal(err)
	}
	w := m.NewWorkspace()
	f := m.UniformField(25)
	steps := int(5*tau/0.05) + 1
	for i := 0; i < steps; i++ {
		if err := w.StepTransientLayersInto(f, f, 0.05, pw, bc); err != nil {
			t.Fatal(err)
		}
	}
	for i := range f.T {
		rise := steady.T[i] - 25
		if math.Abs(f.T[i]-steady.T[i]) > 0.01*rise+0.05 {
			t.Fatalf("cell %d not settled after 5τ: %.3f vs %.3f", i, f.T[i], steady.T[i])
		}
	}
	if _, err := s.TimeConstant(0); err == nil {
		t.Fatal("zero film must error")
	}
	_ = floorplan.Grid{}
}
