package thermal

import (
	"math"
	"testing"

	"repro/internal/floorplan"
)

// smallStack builds a coarse two-layer slab for fast analytic checks.
func smallStack(nx, ny int) *Stack {
	return &Stack{
		Grid: floorplan.NewGrid(nx, ny, 0.02, 0.02),
		Layers: []LayerSpec{
			{Name: "bottom", Thickness: 1e-3, Base: Copper},
			{Name: "top", Thickness: 1e-3, Base: Copper},
		},
	}
}

// solveSteady is a cold steady solve on a fresh workspace into a new
// field.
func solveSteady(m *Model, layers [][]float64, bc TopBoundary) (*Field, error) {
	f := m.NewField()
	if err := m.NewWorkspace().SteadySolveLayersInto(f, nil, layers, bc); err != nil {
		return nil, err
	}
	return f, nil
}

func TestStackValidate(t *testing.T) {
	good := smallStack(4, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallStack(4, 4)
	bad.Layers[0].Thickness = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero thickness must fail validation")
	}
	bad2 := smallStack(1, 4)
	if err := bad2.Validate(); err == nil {
		t.Fatal("degenerate grid must fail validation")
	}
	bad3 := smallStack(4, 4)
	bad3.Layers[0].Base.K = -1
	if err := bad3.Validate(); err == nil {
		t.Fatal("negative conductivity must fail")
	}
	var empty Stack
	empty.Grid = floorplan.NewGrid(4, 4, 1, 1)
	if err := empty.Validate(); err == nil {
		t.Fatal("empty stack must fail")
	}
}

func TestLayerIndex(t *testing.T) {
	s := NewXeonStack(DefaultXeonStackConfig())
	if s.LayerIndex(LayerDie) != 0 {
		t.Fatal("die should be layer 0")
	}
	if s.LayerIndex(LayerEvap) != 4 {
		t.Fatal("evaporator should be layer 4")
	}
	if s.LayerIndex("nope") != -1 {
		t.Fatal("unknown layer should be -1")
	}
}

func TestUniformHeatingAnalytic(t *testing.T) {
	// A slab heated uniformly from below with a uniform convective top at
	// T_f reaches T ≈ T_f + q″/h when lateral losses are negligible.
	s := smallStack(10, 10)
	env := Environment{AmbientC: 25, BottomH: 0} // adiabatic bottom
	m, err := NewModel(s, env)
	if err != nil {
		t.Fatal(err)
	}
	const totalW = 50.0
	p := make([]float64, m.Cells())
	for i := range p {
		p[i] = totalW / float64(m.Cells())
	}
	h := 5000.0
	tf := 40.0
	bc := UniformTop(m.Cells(), h, tf)
	f, err := solveSteady(m, [][]float64{p}, bc)
	if err != nil {
		t.Fatal(err)
	}
	area := 0.02 * 0.02
	wantTop := tf + totalW/(h*area) // ≈ 40 + 25 = 65
	got, err := f.Region(1, floorplan.Rect{X: 0, Y: 0, W: 0.02, H: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mean-wantTop) > 1.5 {
		t.Fatalf("top mean = %.2f, want ≈ %.2f", got.Mean, wantTop)
	}
	// Energy conservation: all injected heat leaves through the top.
	if q := f.TotalHeatToTop(bc); math.Abs(q-totalW) > 0.01*totalW {
		t.Fatalf("heat to top = %.3f W, want %.1f", q, totalW)
	}
}

func TestEnergyConservationWithBottomPath(t *testing.T) {
	s := smallStack(8, 8)
	m, err := NewModel(s, Environment{AmbientC: 45, BottomH: 10})
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, m.Cells())
	p[m.Grid().Index(4, 4)] = 30
	bc := UniformTop(m.Cells(), 8000, 35)
	f, err := solveSteady(m, [][]float64{p}, bc)
	if err != nil {
		t.Fatal(err)
	}
	qTop := f.TotalHeatToTop(bc)
	qBot := f.TotalHeatToBottom()
	if math.Abs(qTop+qBot-30) > 0.05 {
		t.Fatalf("energy imbalance: top %.3f + bottom %.3f ≠ 30", qTop, qBot)
	}
}

func TestHotterAboveHeatSource(t *testing.T) {
	s := smallStack(12, 12)
	m, _ := NewModel(s, Environment{AmbientC: 25, BottomH: 0})
	p := make([]float64, m.Cells())
	p[m.Grid().Index(2, 2)] = 20
	bc := UniformTop(m.Cells(), 6000, 30)
	f, err := solveSteady(m, [][]float64{p}, bc)
	if err != nil {
		t.Fatal(err)
	}
	hot := f.At(0, 2, 2)
	far := f.At(0, 10, 10)
	if hot <= far+1 {
		t.Fatalf("source cell %.2f should be clearly hotter than far cell %.2f", hot, far)
	}
	// Everything must sit above the fluid temperature.
	if far < 30-1e-6 {
		t.Fatalf("far cell %.2f below fluid temperature", far)
	}
}

func TestTopBoundaryValidation(t *testing.T) {
	s := smallStack(4, 4)
	m, _ := NewModel(s, DefaultEnvironment())
	short := TopBoundary{H: make([]float64, 3), TFluid: make([]float64, 3)}
	if _, err := solveSteady(m, nil, short); err == nil {
		t.Fatal("mismatched boundary must error")
	}
}

func TestPowerValidation(t *testing.T) {
	s := smallStack(4, 4)
	m, _ := NewModel(s, DefaultEnvironment())
	bc := UniformTop(m.Cells(), 1000, 30)
	if _, err := solveSteady(m, make([][]float64, m.Layers()+1), bc); err == nil {
		t.Fatal("a power table longer than the stack must error")
	}
	if _, err := solveSteady(m, [][]float64{make([]float64, 2)}, bc); err == nil {
		t.Fatal("short power vector must error")
	}
}

func TestTransientApproachesSteady(t *testing.T) {
	s := smallStack(8, 8)
	m, _ := NewModel(s, Environment{AmbientC: 25, BottomH: 0})
	p := make([]float64, m.Cells())
	for i := range p {
		p[i] = 40.0 / float64(m.Cells())
	}
	bc := UniformTop(m.Cells(), 4000, 35)
	pw := [][]float64{p}
	steady, err := solveSteady(m, pw, bc)
	if err != nil {
		t.Fatal(err)
	}
	w := m.NewWorkspace()
	f := m.UniformField(25)
	for i := 0; i < 400; i++ {
		if err := w.StepTransientLayersInto(f, f, 0.05, pw, bc); err != nil {
			t.Fatal(err)
		}
	}
	for i := range f.T {
		if math.Abs(f.T[i]-steady.T[i]) > 0.2 {
			t.Fatalf("transient cell %d = %.3f, steady %.3f", i, f.T[i], steady.T[i])
		}
	}
}

func TestTransientMonotoneWarmup(t *testing.T) {
	s := smallStack(6, 6)
	m, _ := NewModel(s, Environment{AmbientC: 25, BottomH: 0})
	p := make([]float64, m.Cells())
	p[0] = 10
	bc := UniformTop(m.Cells(), 3000, 25)
	pw := [][]float64{p}
	w := m.NewWorkspace()
	f := m.UniformField(25)
	prev := f.At(0, 0, 0)
	for i := 0; i < 20; i++ {
		if err := w.StepTransientLayersInto(f, f, 0.1, pw, bc); err != nil {
			t.Fatal(err)
		}
		cur := f.At(0, 0, 0)
		if cur < prev-1e-9 {
			t.Fatalf("warm-up not monotone at step %d: %v < %v", i, cur, prev)
		}
		prev = cur
	}
}

func TestTransientValidation(t *testing.T) {
	s := smallStack(4, 4)
	m, _ := NewModel(s, DefaultEnvironment())
	bc := UniformTop(m.Cells(), 1000, 30)
	w := m.NewWorkspace()
	f := m.UniformField(25)
	if err := w.StepTransientLayersInto(f, f, -1, nil, bc); err == nil {
		t.Fatal("negative dt must error")
	}
	if err := w.StepTransientLayersInto(f, nil, 0.1, nil, bc); err == nil {
		t.Fatal("nil field must error")
	}
}

func TestXeonStackDieRegion(t *testing.T) {
	cfg := DefaultXeonStackConfig()
	s := NewXeonStack(cfg)
	m, err := NewModel(s, DefaultEnvironment())
	if err != nil {
		t.Fatal(err)
	}
	// Uniform die power spread over the die footprint only.
	die := cfg.Package.DieRectOnPackage()
	g := s.Grid
	p := make([]float64, m.Cells())
	var nDie int
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			cx, cy := g.CellCenter(ix, iy)
			if die.Contains(cx, cy) {
				nDie++
			}
		}
	}
	// Uniform 40 W over the die plus a 20 W hot block in the die's NW
	// quadrant, mimicking an active core cluster.
	hot := floorplan.Rect{X: die.X, Y: die.Y, W: die.W / 4, H: die.H / 4}
	var nHot int
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			cx, cy := g.CellCenter(ix, iy)
			if hot.Contains(cx, cy) {
				nHot++
			}
		}
	}
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			cx, cy := g.CellCenter(ix, iy)
			idx := g.Index(ix, iy)
			if die.Contains(cx, cy) {
				p[idx] = 40.0 / float64(nDie)
			}
			if hot.Contains(cx, cy) {
				p[idx] += 20.0 / float64(nHot)
			}
		}
	}
	bc := UniformTop(m.Cells(), 9000, 38)
	f, err := solveSteady(m, [][]float64{p}, bc)
	if err != nil {
		t.Fatal(err)
	}
	dieStats, err := f.Region(0, die)
	if err != nil {
		t.Fatal(err)
	}
	evapStats, err := f.Region(4, floorplan.Rect{X: 0, Y: 0, W: cfg.Package.Width, H: cfg.Package.Height})
	if err != nil {
		t.Fatal(err)
	}
	// Die hotter than evaporator surface; both above fluid temperature;
	// die temperatures in a server-plausible band.
	if dieStats.Max <= evapStats.Max {
		t.Fatalf("die max %.1f should exceed evaporator max %.1f", dieStats.Max, evapStats.Max)
	}
	if dieStats.Max < 40 || dieStats.Max > 110 {
		t.Fatalf("die max %.1f outside plausible band", dieStats.Max)
	}
	// The dead east side of the die must be cooler than the west (cores
	// absent here since power is uniform — just check spreader smooths).
	sp, _ := f.Region(2, die)
	if sp.Max-sp.Min >= dieStats.Max-dieStats.Min {
		t.Fatal("spreader should have a flatter profile than the die")
	}
}

func TestFieldAccessors(t *testing.T) {
	s := smallStack(4, 4)
	m, _ := NewModel(s, DefaultEnvironment())
	f := m.UniformField(33)
	if f.At(1, 2, 2) != 33 {
		t.Fatal("UniformField wrong")
	}
	if _, err := f.LayerByName("top"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.LayerByName("zzz"); err == nil {
		t.Fatal("unknown layer must error")
	}
	if f.SampleAt(0, -1, -1) != 33 {
		t.Fatal("SampleAt should clamp")
	}
	c := f.Clone()
	c.T[0] = 99
	if f.T[0] != 33 {
		t.Fatal("Clone aliases")
	}
	if _, err := f.Region(0, floorplan.Rect{X: 100, Y: 100, W: 1, H: 1}); err == nil {
		t.Fatal("empty probe must error")
	}
}
