package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
)

// TestMaximumPrinciple: with no internal heat sources, the steady solution
// must lie between the boundary temperatures (discrete maximum principle
// for the conduction operator).
func TestMaximumPrinciple(t *testing.T) {
	s := smallStack(8, 8)
	env := Environment{AmbientC: 55, BottomH: 20}
	m, err := NewModel(s, env)
	if err != nil {
		t.Fatal(err)
	}
	bc := UniformTop(m.Cells(), 4000, 35)
	f, err := solveSteady(m, nil, bc)
	if err != nil {
		t.Fatal(err)
	}
	for i, temp := range f.T {
		if temp < 35-1e-6 || temp > 55+1e-6 {
			t.Fatalf("cell %d = %.3f outside [35,55]", i, temp)
		}
	}
}

// TestSourcesOnlyRaiseTemperatures: adding power anywhere must not lower
// any cell's temperature (monotonicity of the resolvent).
func TestSourcesOnlyRaiseTemperatures(t *testing.T) {
	s := smallStack(6, 6)
	m, _ := NewModel(s, Environment{AmbientC: 45, BottomH: 10})
	bc := UniformTop(m.Cells(), 5000, 30)
	base, err := solveSteady(m, nil, bc)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, m.Cells())
	p[m.Grid().Index(2, 3)] = 15
	hot, err := solveSteady(m, [][]float64{p}, bc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.T {
		if hot.T[i] < base.T[i]-1e-7 {
			t.Fatalf("cell %d cooled when power was added: %.4f < %.4f", i, hot.T[i], base.T[i])
		}
	}
}

// TestLinearityOfSteadySolve: the steady operator is linear, so doubling
// the power doubles the rise above the homogeneous (zero-power) solution.
func TestLinearityOfSteadySolve(t *testing.T) {
	s := smallStack(6, 6)
	m, _ := NewModel(s, Environment{AmbientC: 40, BottomH: 5})
	bc := UniformTop(m.Cells(), 6000, 32)
	zero, err := solveSteady(m, nil, bc)
	if err != nil {
		t.Fatal(err)
	}
	p1 := make([]float64, m.Cells())
	p1[m.Grid().Index(1, 1)] = 8
	p1[m.Grid().Index(4, 4)] = 4
	one, err := solveSteady(m, [][]float64{p1}, bc)
	if err != nil {
		t.Fatal(err)
	}
	p2 := make([]float64, m.Cells())
	for i := range p1 {
		p2[i] = 2 * p1[i]
	}
	two, err := solveSteady(m, [][]float64{p2}, bc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range zero.T {
		rise1 := one.T[i] - zero.T[i]
		rise2 := two.T[i] - zero.T[i]
		if math.Abs(rise2-2*rise1) > 1e-5*(1+math.Abs(rise2)) {
			t.Fatalf("cell %d: rise not linear (%.6f vs 2×%.6f)", i, rise2, rise1)
		}
	}
}

// Property: for random positive power patterns, the global energy balance
// closes and the hottest cell is in the powered layer.
func TestEnergyBalanceProperty(t *testing.T) {
	s := smallStack(5, 5)
	m, _ := NewModel(s, Environment{AmbientC: 45, BottomH: 10})
	bc := UniformTop(m.Cells(), 7000, 35)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := make([]float64, m.Cells())
		var total float64
		for i := range p {
			if rng.Float64() < 0.3 {
				p[i] = rng.Float64() * 5
				total += p[i]
			}
		}
		if total == 0 {
			return true
		}
		sol, err := solveSteady(m, [][]float64{p}, bc)
		if err != nil {
			return false
		}
		out := sol.TotalHeatToTop(bc) + sol.TotalHeatToBottom()
		return math.Abs(out-total) < 0.02*total+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestGridResolutionConvergence: refining the grid must not change the
// bulk solution much (discretization consistency).
func TestGridResolutionConvergence(t *testing.T) {
	mean := func(nx, ny int) float64 {
		s := &Stack{
			Grid: floorplan.NewGrid(nx, ny, 0.02, 0.02),
			Layers: []LayerSpec{
				{Name: "bottom", Thickness: 1e-3, Base: Copper},
				{Name: "top", Thickness: 1e-3, Base: Copper},
			},
		}
		m, err := NewModel(s, Environment{AmbientC: 25, BottomH: 0})
		if err != nil {
			t.Fatal(err)
		}
		p := make([]float64, m.Cells())
		// A centered quarter-area patch with 40 W total.
		g := m.Grid()
		var n int
		for iy := g.NY / 4; iy < 3*g.NY/4; iy++ {
			for ix := g.NX / 4; ix < 3*g.NX/4; ix++ {
				n++
			}
		}
		for iy := g.NY / 4; iy < 3*g.NY/4; iy++ {
			for ix := g.NX / 4; ix < 3*g.NX/4; ix++ {
				p[g.Index(ix, iy)] = 40.0 / float64(n)
			}
		}
		bc := UniformTop(m.Cells(), 5000, 35)
		sol, err := solveSteady(m, [][]float64{p}, bc)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, temp := range sol.Layer(0) {
			sum += temp
		}
		return sum / float64(m.Cells())
	}
	coarse := mean(8, 8)
	fine := mean(16, 16)
	if math.Abs(coarse-fine) > 1.0 {
		t.Fatalf("mean temperature moved %.2f °C under refinement (%.2f vs %.2f)",
			math.Abs(coarse-fine), coarse, fine)
	}
}
