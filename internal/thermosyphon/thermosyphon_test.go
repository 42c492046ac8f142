package thermosyphon

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
	"repro/internal/linalg"
	"repro/internal/refrigerant"
)

func TestDefaultDesignValid(t *testing.T) {
	d := DefaultDesign()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Fluid.Name() != "R236fa" || d.FillingRatio != 0.55 || d.Orientation != InletWest {
		t.Fatalf("default design deviates from the paper's §VI choices: %+v", d)
	}
}

func TestDesignValidation(t *testing.T) {
	mods := []func(*Design){
		func(d *Design) { d.Fluid = nil },
		func(d *Design) { d.FillingRatio = 0 },
		func(d *Design) { d.FillingRatio = 1 },
		func(d *Design) { d.ChannelHydraulicDiam = 0 },
		func(d *Design) { d.AreaEnhancement = 0.5 },
		func(d *Design) { d.RiserHeight = -1 },
		func(d *Design) { d.SubcoolFraction = 2 },
		// Non-finite values fail every range test.
		func(d *Design) { d.FillingRatio = math.NaN() },
		func(d *Design) { d.ChannelHydraulicDiam = math.NaN() },
		func(d *Design) { d.ChannelHydraulicDiam = math.Inf(1) },
		func(d *Design) { d.AreaEnhancement = math.NaN() },
		func(d *Design) { d.AreaEnhancement = math.Inf(1) },
		func(d *Design) { d.InletSubcoolC = math.NaN() },
		func(d *Design) { d.InletSubcoolC = math.Inf(-1) },
		func(d *Design) { d.SubcoolFraction = math.NaN() },
		func(d *Design) { d.RiserHeight = math.NaN() },
		func(d *Design) { d.PipeArea = math.Inf(1) },
		func(d *Design) { d.LoopK = math.NaN() },
		func(d *Design) { d.CondenserUA = math.NaN() },
		func(d *Design) { d.CondenserUA = math.Inf(1) },
	}
	for i, mod := range mods {
		d := DefaultDesign()
		mod(&d)
		if err := d.Validate(); err == nil {
			t.Fatalf("mod %d should fail validation", i)
		}
	}
}

func TestOperatingValidation(t *testing.T) {
	if err := DefaultOperating().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, op := range []Operating{
		{WaterInC: 30, WaterFlowKgH: 0},
		{WaterInC: 200, WaterFlowKgH: 7},
		{WaterInC: -1, WaterFlowKgH: 7},
		{WaterInC: math.NaN(), WaterFlowKgH: 7},
		{WaterInC: math.Inf(1), WaterFlowKgH: 7},
		{WaterInC: 30, WaterFlowKgH: math.NaN()},
		{WaterInC: 30, WaterFlowKgH: math.Inf(1)},
	} {
		if err := op.Validate(); err == nil {
			t.Errorf("%+v must fail validation", op)
		}
	}
}

func TestOrientationHelpers(t *testing.T) {
	if !InletWest.Horizontal() || !InletEast.Horizontal() {
		t.Fatal("E/W inlets are horizontal channels")
	}
	if InletNorth.Horizontal() || InletSouth.Horizontal() {
		t.Fatal("N/S inlets are vertical channels")
	}
	if len(Orientations()) != 4 {
		t.Fatal("four orientations expected")
	}
	for _, o := range Orientations() {
		if o.String() == "" {
			t.Fatal("orientation must have a name")
		}
	}
}

func TestCondenserPhysics(t *testing.T) {
	d := DefaultDesign()
	op := DefaultOperating()
	sol, err := d.Condense(70, op)
	if err != nil {
		t.Fatal(err)
	}
	// Saturation above water inlet; water warms along the condenser.
	if sol.TsatC <= op.WaterInC {
		t.Fatalf("Tsat %.1f must exceed water inlet %.1f", sol.TsatC, op.WaterInC)
	}
	if sol.WaterOutC <= op.WaterInC || sol.WaterOutC >= sol.TsatC {
		t.Fatalf("water outlet %.1f must sit between inlet and Tsat %.1f", sol.WaterOutC, sol.TsatC)
	}
	if sol.Effectiveness <= 0 || sol.Effectiveness > 1 {
		t.Fatalf("effectiveness %v out of range", sol.Effectiveness)
	}
	// The paper's 7 kg/h at 30 °C with ~70 W: Tsat should land in the
	// high-30s/low-40s so the package sits near 46-53 °C.
	if sol.TsatC < 34 || sol.TsatC > 46 {
		t.Fatalf("Tsat %.1f outside the calibrated band", sol.TsatC)
	}
}

func TestCondenserMonotoneInFlowAndLoad(t *testing.T) {
	d := DefaultDesign()
	lowFlow, _ := d.Condense(70, Operating{WaterInC: 30, WaterFlowKgH: 4})
	highFlow, _ := d.Condense(70, Operating{WaterInC: 30, WaterFlowKgH: 12})
	if highFlow.TsatC >= lowFlow.TsatC {
		t.Fatal("more water flow must lower Tsat")
	}
	lowQ, _ := d.Condense(40, DefaultOperating())
	highQ, _ := d.Condense(80, DefaultOperating())
	if highQ.TsatC <= lowQ.TsatC {
		t.Fatal("more heat must raise Tsat")
	}
	if _, err := d.Condense(-5, DefaultOperating()); err == nil {
		t.Fatal("negative load must error")
	}
}

func TestLoopBalance(t *testing.T) {
	d := DefaultDesign()
	sol, err := d.SolveLoop(70, 40)
	if err != nil {
		t.Fatal(err)
	}
	if sol.MassFlowKgS <= 0 {
		t.Fatal("no circulation")
	}
	// Converged balance: head ≈ friction.
	if math.Abs(sol.DrivingHeadPa-sol.FrictionPa) > 0.01*sol.DrivingHeadPa {
		t.Fatalf("unbalanced loop: head %.1f vs friction %.1f", sol.DrivingHeadPa, sol.FrictionPa)
	}
	// Plausible natural-circulation magnitudes for a micro thermosyphon:
	// grams per second and moderate exit quality.
	if sol.MassFlowKgS < 0.5e-3 || sol.MassFlowKgS > 20e-3 {
		t.Fatalf("mass flow %.4g kg/s implausible", sol.MassFlowKgS)
	}
	if sol.ExitQuality <= 0.02 || sol.ExitQuality >= 0.9 {
		t.Fatalf("exit quality %.3f implausible", sol.ExitQuality)
	}
	if _, err := d.SolveLoop(0, 40); err == nil {
		t.Fatal("zero load must error")
	}
}

func TestLoopQualityRisesWithLoad(t *testing.T) {
	d := DefaultDesign()
	a, _ := d.SolveLoop(40, 40)
	b, _ := d.SolveLoop(80, 40)
	if b.ExitQuality <= a.ExitQuality {
		t.Fatal("more heat must raise exit quality")
	}
	// Natural-circulation flow responds weakly to load (the curve can
	// tilt either way); it must stay within a factor of two.
	if r := b.MassFlowKgS / a.MassFlowKgS; r < 0.5 || r > 2 {
		t.Fatalf("mass flow moved by %.2fx when load doubled", r)
	}
}

func TestBoilingHTCBehaviour(t *testing.T) {
	d := DefaultDesign()
	boil := d.boilingAt(40)
	// HTC rises with quality below dryout...
	h1 := boil.htc(0.05, 6e4)
	h2 := boil.htc(0.35, 6e4)
	if h2 <= h1 {
		t.Fatalf("HTC should rise with quality: %v vs %v", h1, h2)
	}
	// ...and collapses past the critical quality.
	hDry := boil.htc(0.95, 6e4)
	if hDry >= h2*0.6 {
		t.Fatalf("dryout HTC %v should collapse versus %v", hDry, h2)
	}
	// Nucleate term grows with heat flux.
	if boil.htc(0.2, 1.2e5) <= boil.htc(0.2, 3e4) {
		t.Fatal("HTC should grow with heat flux")
	}
	// Magnitude: several kW/m²K in the boiling regime.
	if h2 < 3e3 || h2 > 5e4 {
		t.Fatalf("HTC %v outside plausible band", h2)
	}
}

// boilingHTCPerCall is the boiling HTC as it was before its
// saturation-only terms were hoisted into boilingAt: every term evaluated
// on every call.
func boilingHTCPerCall(d *Design, x, qFlux, tsatC float64) float64 {
	fl := d.Fluid
	hl := 4.36 * fl.KLiquid(tsatC) / d.ChannelHydraulicDiam
	hnb := 2.2 * math.Pow(math.Max(qFlux, 1000), 0.7)
	ratio := fl.RhoLiquid(tsatC) / fl.RhoVapor(tsatC)
	x = linalg.Clamp(x, 0, 1)
	hcv := hl * (1 + 2.2*math.Pow(x, 0.8)*math.Pow(ratio, 0.35))
	h := hnb + hcv
	if xc := d.CritQuality(); x > xc {
		h *= math.Max(0.25, 1-1.5*(x-xc))
	}
	return h
}

// TestBoilingHoistBitIdentical: the march's hoisted HTC equals the
// per-call formula bit for bit across quality (clamped, below and above
// the critical quality), heat flux (below and above the 1000 W/m² floor)
// and saturation temperature (inside R236fa's table and at and past its
// clamped edges), at a fill whose critical quality is capped as well.
func TestBoilingHoistBitIdentical(t *testing.T) {
	for _, fill := range []float64{0.55, 0.95} {
		d := DefaultDesign()
		d.FillingRatio = fill
		xc := d.CritQuality()
		lo, hi := d.Fluid.TempRange()
		for _, tsat := range []float64{lo - 5, lo, 23.7, 40, 61.3, hi, hi + 5} {
			boil := d.boilingAt(tsat)
			for _, x := range []float64{-0.1, 0, 0.05, xc - 1e-9, xc, xc + 1e-9, 0.7, 0.9, 0.99, 1, 1.2} {
				for _, q := range []float64{0, 400, 999.9, 1000, 1000.1, 3e4, 1.2e5, 1e6} {
					want := boilingHTCPerCall(&d, x, q, tsat)
					if got := boil.htc(x, q); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("fill %g tsat %g x %g q %g: hoisted %v, per-call %v", fill, tsat, x, q, got, want)
					}
				}
			}
		}
	}
}

func TestCritQualityTracksFilling(t *testing.T) {
	lo := DefaultDesign()
	lo.FillingRatio = 0.25
	hi := DefaultDesign()
	hi.FillingRatio = 0.70
	if lo.CritQuality() >= hi.CritQuality() {
		t.Fatal("lower fill must dry out earlier")
	}
	over := DefaultDesign()
	over.FillingRatio = 0.90
	if over.condenserEffUA() >= over.CondenserUA {
		t.Fatal("overfilled loop must lose condenser area")
	}
}

func testGrid() floorplan.Grid {
	pg := floorplan.XeonE5Package()
	return floorplan.NewGrid(38, 30, pg.Width, pg.Height)
}

func uniformHeat(grid floorplan.Grid, total float64) []float64 {
	q := make([]float64, grid.Cells())
	for i := range q {
		q[i] = total / float64(grid.Cells())
	}
	return q
}

func TestEvaporateUniform(t *testing.T) {
	d := DefaultDesign()
	grid := testGrid()
	st, err := d.EvaporateInto(nil, grid, uniformHeat(grid, 70), DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalHeatW < 69.9 || st.TotalHeatW > 70.1 {
		t.Fatalf("total heat %.2f", st.TotalHeatW)
	}
	for i, h := range st.H {
		if h <= 0 {
			t.Fatalf("cell %d has no HTC", i)
		}
		if st.TFluid[i] > st.Condenser.TsatC+1e-9 {
			t.Fatalf("fluid temp above saturation at %d", i)
		}
	}
	if st.MaxQuality <= 0 || st.MaxQuality >= 1 {
		t.Fatalf("max quality %v", st.MaxQuality)
	}
	// At 70 W the loop runs near 0.6 exit quality: only the far channel
	// tails may cross dryout, never a large share of the plate.
	if st.DryoutCells > grid.Cells()/10 {
		t.Fatalf("uniform 70 W dried %d of %d cells", st.DryoutCells, grid.Cells())
	}
}

func TestEvaporateQualityGrowsDownstream(t *testing.T) {
	d := DefaultDesign() // InletWest: flow west→east
	grid := testGrid()
	st, err := d.EvaporateInto(nil, grid, uniformHeat(grid, 70), DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	midRow := grid.NY / 2
	// Downstream (east) cells see higher quality → higher HTC (below
	// dryout) than the first post-subcool cells.
	hEarly := st.H[grid.Index(grid.NX/3, midRow)]
	hLate := st.H[grid.Index(grid.NX-2, midRow)]
	if hLate <= hEarly {
		t.Fatalf("HTC should grow downstream below dryout: %v vs %v", hEarly, hLate)
	}
	// Subcooling: inlet cells cooler than saturation.
	if st.TFluid[grid.Index(0, midRow)] >= st.Condenser.TsatC-0.5 {
		t.Fatal("inlet should be subcooled")
	}
	if st.TFluid[grid.Index(grid.NX-1, midRow)] < st.Condenser.TsatC-1e-9 {
		t.Fatal("outlet should reach saturation")
	}
}

func TestEvaporateOrientationFlowDirection(t *testing.T) {
	grid := testGrid()
	heat := uniformHeat(grid, 70)
	for _, o := range Orientations() {
		d := DefaultDesign()
		d.Orientation = o
		st, err := d.EvaporateInto(nil, grid, heat, DefaultOperating())
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		// Find the subcooled inlet edge.
		var inletIdx, outletIdx int
		switch o {
		case InletWest:
			inletIdx, outletIdx = grid.Index(0, 5), grid.Index(grid.NX-1, 5)
		case InletEast:
			inletIdx, outletIdx = grid.Index(grid.NX-1, 5), grid.Index(0, 5)
		case InletNorth:
			inletIdx, outletIdx = grid.Index(5, 0), grid.Index(5, grid.NY-1)
		case InletSouth:
			inletIdx, outletIdx = grid.Index(5, grid.NY-1), grid.Index(5, 0)
		}
		if st.TFluid[inletIdx] >= st.TFluid[outletIdx] {
			t.Fatalf("%v: inlet %f should be cooler than outlet %f", o, st.TFluid[inletIdx], st.TFluid[outletIdx])
		}
	}
}

func TestEvaporateConcentratedDryout(t *testing.T) {
	// Pile the entire load onto two adjacent channels: the per-channel
	// quality should hit dryout, unlike the spread case.
	d := DefaultDesign()
	grid := testGrid()
	q := make([]float64, grid.Cells())
	const total = 50.0
	perCell := total / float64(2*grid.NX)
	for ix := 0; ix < grid.NX; ix++ {
		q[grid.Index(ix, 10)] = perCell
		q[grid.Index(ix, 11)] = perCell
	}
	st, err := d.EvaporateInto(nil, grid, q, DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	if st.DryoutCells == 0 {
		t.Fatal("concentrating 50 W on two channels must cause dryout")
	}
	spread, _ := d.EvaporateInto(nil, grid, uniformHeat(grid, total), DefaultOperating())
	if spread.DryoutCells >= st.DryoutCells {
		t.Fatalf("spread load should dry out fewer cells: %d vs %d", spread.DryoutCells, st.DryoutCells)
	}
}

func TestEvaporateErrors(t *testing.T) {
	d := DefaultDesign()
	grid := testGrid()
	if _, err := d.EvaporateInto(nil, grid, make([]float64, 3), DefaultOperating()); err == nil {
		t.Fatal("wrong heat length must error")
	}
	bad := DefaultDesign()
	bad.FillingRatio = 0
	if _, err := bad.EvaporateInto(nil, grid, uniformHeat(grid, 10), DefaultOperating()); err == nil {
		t.Fatal("invalid design must error")
	}
	if _, err := d.EvaporateInto(nil, grid, uniformHeat(grid, 10), Operating{}); err == nil {
		t.Fatal("invalid operating point must error")
	}
	// Near-zero heat must still produce a state (idle CPU).
	st, err := d.EvaporateInto(nil, grid, make([]float64, grid.Cells()), DefaultOperating())
	if err != nil || st == nil {
		t.Fatalf("idle evaporation failed: %v", err)
	}
}

func TestAlternativeRefrigerants(t *testing.T) {
	grid := testGrid()
	for _, fl := range refrigerant.Candidates() {
		d := DefaultDesign()
		d.Fluid = fl
		st, err := d.EvaporateInto(nil, grid, uniformHeat(grid, 70), DefaultOperating())
		if err != nil {
			t.Fatalf("%s: %v", fl.Name(), err)
		}
		if st.Loop.MassFlowKgS <= 0 {
			t.Fatalf("%s: no circulation", fl.Name())
		}
	}
}

// Property: across random loads and water settings, the condensing
// temperature stays above the water inlet and the loop balances.
func TestSolveProperty(t *testing.T) {
	d := DefaultDesign()
	f := func(qRaw, twRaw, flowRaw float64) bool {
		q := 20 + math.Mod(math.Abs(qRaw), 80)
		tw := 15 + math.Mod(math.Abs(twRaw), 25)
		flow := 3 + math.Mod(math.Abs(flowRaw), 15)
		if math.IsNaN(q) || math.IsNaN(tw) || math.IsNaN(flow) {
			return true
		}
		cond, err := d.Condense(q, Operating{WaterInC: tw, WaterFlowKgH: flow})
		if err != nil || cond.TsatC <= tw {
			return false
		}
		loop, err := d.SolveLoop(q, cond.TsatC)
		if err != nil || loop.MassFlowKgS <= 0 {
			return false
		}
		return math.Abs(loop.DrivingHeadPa-loop.FrictionPa) < 0.02*loop.DrivingHeadPa+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEvaporateIntoMatchesEvaporate: evaporating into a state left dirty
// by a different load must recycle its buffers and return bit-identical
// fields to a fresh evaporation, for every orientation.
func TestEvaporateIntoMatchesEvaporate(t *testing.T) {
	grid := floorplan.NewGrid(10, 8, 0.02, 0.016)
	q := make([]float64, grid.Cells())
	for i := range q {
		q[i] = 0.3 + 0.05*float64(i%5)
	}
	op := DefaultOperating()
	for _, o := range Orientations() {
		d := DefaultDesign()
		d.Orientation = o
		fresh, err := d.EvaporateInto(nil, grid, q, op)
		if err != nil {
			t.Fatal(err)
		}
		st, err := d.EvaporateInto(nil, grid, uniformHeat(grid, 90), op)
		if err != nil {
			t.Fatal(err)
		}
		prevH := &st.H[0]
		st2, err := d.EvaporateInto(st, grid, q, op)
		if err != nil {
			t.Fatal(err)
		}
		if st2 != st || &st2.H[0] != prevH {
			t.Fatalf("%v: EvaporateInto did not reuse the state", o)
		}
		if st2.TotalHeatW != fresh.TotalHeatW || st2.MaxQuality != fresh.MaxQuality ||
			st2.DryoutCells != fresh.DryoutCells || st2.Loop != fresh.Loop || st2.Condenser != fresh.Condenser {
			t.Fatalf("%v: summary differs: %+v vs %+v", o, st2, fresh)
		}
		for i := range fresh.H {
			if st2.H[i] != fresh.H[i] || st2.TFluid[i] != fresh.TFluid[i] {
				t.Fatalf("%v: cell %d differs", o, i)
			}
		}
	}
}

// TestChannelSpansCoverGrid: each orientation's channels cover every grid
// cell exactly once, each channel stays in its own row (east-west) or
// column (north-south), and each starts on the inlet edge.
func TestChannelSpansCoverGrid(t *testing.T) {
	grid := floorplan.NewGrid(7, 5, 0.02, 0.016)
	for _, o := range Orientations() {
		seen := make([]int, grid.Cells())
		for ch := 0; ch < channelCount(o, grid); ch++ {
			start, stride, n := channelSpan(o, grid, ch)
			ix, iy := start%grid.NX, start/grid.NX
			var onInlet bool
			switch o {
			case InletWest:
				onInlet = ix == 0
			case InletEast:
				onInlet = ix == grid.NX-1
			case InletNorth:
				onInlet = iy == 0
			case InletSouth:
				onInlet = iy == grid.NY-1
			}
			if !onInlet {
				t.Errorf("%v ch %d: starts at (%d,%d), off the inlet edge", o, ch, ix, iy)
			}
			for pos := 0; pos < n; pos++ {
				c := start + pos*stride
				if c < 0 || c >= grid.Cells() {
					t.Fatalf("%v ch %d pos %d: cell %d off the grid", o, ch, pos, c)
				}
				line := c / grid.NX // row
				if !o.Horizontal() {
					line = c % grid.NX // column
				}
				if line != ch {
					t.Fatalf("%v ch %d pos %d: cell %d on line %d", o, ch, pos, c, line)
				}
				seen[c]++
			}
		}
		for c, k := range seen {
			if k != 1 {
				t.Errorf("%v: cell %d visited %d times", o, c, k)
			}
		}
	}
}
