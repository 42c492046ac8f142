package cosim

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// coarseConfig keeps unit tests fast: 2 mm cells instead of 0.5 mm.
func coarseConfig() Config {
	cfg := DefaultConfig()
	cfg.Stack.NX, cfg.Stack.NY = 19, 15
	return cfg
}

func fullLoadState(dyn float64) power.PackageState {
	var st power.PackageState
	st.Freq = power.FMax
	st.UncoreFreq = 2.2
	st.LLC = 0.8
	for i := range st.Cores {
		st.Cores[i] = power.CoreLoad{Active: true, DynWatts: dyn}
	}
	return st
}

func TestNewSystem(t *testing.T) {
	s, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.FP == nil || s.Power == nil || s.Thermal == nil {
		t.Fatal("incomplete system")
	}
	var dieCells int
	for _, b := range s.DieMask() {
		if b {
			dieCells++
		}
	}
	if dieCells == 0 || dieCells == s.Thermal.Cells() {
		t.Fatalf("die mask covers %d of %d cells", dieCells, s.Thermal.Cells())
	}
}

func TestNewSystemRejectsBadDesign(t *testing.T) {
	cfg := coarseConfig()
	cfg.Design.FillingRatio = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("invalid design must be rejected")
	}
}

func TestSolveSteadyFullLoad(t *testing.T) {
	s, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.NewSession().SolveSteady(nil, fullLoadState(2.2), thermosyphon.DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	die, err := s.DieStats(res)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := s.PackageStats(res)
	if err != nil {
		t.Fatal(err)
	}
	// Paper-calibrated bands: die hotspot in the 50-90 °C range, package
	// in the 40-60 °C range, die hotter than package, die gradient larger
	// than package gradient (Fig. 2 motivation).
	if die.MaxC < 50 || die.MaxC > 95 {
		t.Fatalf("die max %.1f outside band", die.MaxC)
	}
	if pkg.MaxC < 38 || pkg.MaxC > 62 {
		t.Fatalf("package max %.1f outside band", pkg.MaxC)
	}
	if die.MaxC <= pkg.MaxC {
		t.Fatal("die must be hotter than package")
	}
	if die.MaxGradCPerMM <= pkg.MaxGradCPerMM {
		t.Fatalf("die gradient %.2f must exceed package gradient %.2f",
			die.MaxGradCPerMM, pkg.MaxGradCPerMM)
	}
	// Saturation temperature must sit between water inlet and the package.
	if res.Syphon.Condenser.TsatC <= 30 || res.Syphon.Condenser.TsatC >= pkg.MaxC {
		t.Fatalf("Tsat %.1f implausible", res.Syphon.Condenser.TsatC)
	}
	if res.Iterations < 2 {
		t.Fatal("coupling should need iteration")
	}
}

func TestEnergyBalance(t *testing.T) {
	s, _ := NewSystem(coarseConfig())
	res, err := s.NewSession().SolveSteady(nil, fullLoadState(2.0), thermosyphon.DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	qTop := res.Field.TotalHeatToTop(res.BC)
	qBot := res.Field.TotalHeatToBottom()
	if math.Abs(qTop+qBot-res.TotalPowerW) > 0.02*res.TotalPowerW {
		t.Fatalf("energy imbalance: %.2f + %.2f vs %.2f", qTop, qBot, res.TotalPowerW)
	}
	// The thermosyphon must absorb the dominant share.
	if qTop < 0.8*res.TotalPowerW {
		t.Fatalf("thermosyphon absorbs only %.1f of %.1f W", qTop, res.TotalPowerW)
	}
}

func TestHotterWithMorePower(t *testing.T) {
	s, _ := NewSystem(coarseConfig())
	op := thermosyphon.DefaultOperating()
	lo, err := s.NewSession().SolveSteady(nil, fullLoadState(0.8), op)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := s.NewSession().SolveSteady(nil, fullLoadState(3.0), op)
	if err != nil {
		t.Fatal(err)
	}
	dLo, _ := s.DieStats(lo)
	dHi, _ := s.DieStats(hi)
	if dHi.MaxC <= dLo.MaxC {
		t.Fatalf("more power must be hotter: %.1f vs %.1f", dHi.MaxC, dLo.MaxC)
	}
}

func TestColderWaterCools(t *testing.T) {
	s, _ := NewSystem(coarseConfig())
	warm, err := s.NewSession().SolveSteady(nil, fullLoadState(2.2), thermosyphon.Operating{WaterInC: 30, WaterFlowKgH: 7})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.NewSession().SolveSteady(nil, fullLoadState(2.2), thermosyphon.Operating{WaterInC: 20, WaterFlowKgH: 7})
	if err != nil {
		t.Fatal(err)
	}
	dw, _ := s.DieStats(warm)
	dc, _ := s.DieStats(cold)
	if dc.MaxC >= dw.MaxC {
		t.Fatalf("colder water must cool the die: %.1f vs %.1f", dc.MaxC, dw.MaxC)
	}
	// Roughly degree-for-degree tracking.
	if drop := dw.MaxC - dc.MaxC; drop < 5 || drop > 14 {
		t.Fatalf("10 °C colder water moved the die by %.1f °C", drop)
	}
}

func TestMoreFlowCools(t *testing.T) {
	s, _ := NewSystem(coarseConfig())
	slow, err := s.NewSession().SolveSteady(nil, fullLoadState(2.2), thermosyphon.Operating{WaterInC: 30, WaterFlowKgH: 5})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := s.NewSession().SolveSteady(nil, fullLoadState(2.2), thermosyphon.Operating{WaterInC: 30, WaterFlowKgH: 12})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := s.DieStats(slow)
	df, _ := s.DieStats(fast)
	if df.MaxC >= ds.MaxC {
		t.Fatalf("more water flow must cool: %.1f vs %.1f", df.MaxC, ds.MaxC)
	}
}

func TestTCaseBetweenFluidAndDie(t *testing.T) {
	s, _ := NewSystem(coarseConfig())
	res, err := s.NewSession().SolveSteady(nil, fullLoadState(2.2), thermosyphon.DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	die, _ := s.DieStats(res)
	tc := s.TCase(res)
	if tc >= die.MaxC || tc <= res.Syphon.Condenser.TsatC {
		t.Fatalf("TCase %.1f should sit between Tsat %.1f and die max %.1f",
			tc, res.Syphon.Condenser.TsatC, die.MaxC)
	}
}

func TestSolveSteadyPowerUnknownBlock(t *testing.T) {
	s, _ := NewSystem(coarseConfig())
	if _, err := s.NewSession().SolveSteadyPower(nil, map[string]float64{"bogus": 5}, thermosyphon.DefaultOperating()); err == nil {
		t.Fatal("unknown block must error")
	}
}

func TestDieRectMatchesStack(t *testing.T) {
	cfg := coarseConfig()
	s, _ := NewSystem(cfg)
	want := cfg.Stack.Package.DieRectOnPackage()
	if s.DieRect() != want {
		t.Fatalf("die rect %+v, want %+v", s.DieRect(), want)
	}
	_ = thermal.LayerDie
	_ = floorplan.NumCores
}
