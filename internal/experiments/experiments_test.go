package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

func TestResolutionNames(t *testing.T) {
	for _, r := range []Resolution{Coarse, Medium, Full} {
		if r.String() == "" {
			t.Fatal("unnamed resolution")
		}
		nx, ny := r.dims()
		if nx < 10 || ny < 10 {
			t.Fatalf("%v dims %dx%d too small", r, nx, ny)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	// The Fig. 2 motivational claim: die hot spots and gradients are
	// scaled-up versions of the package's (die 66.1 vs pkg 46.4 °C;
	// ∇ 6.6 vs 0.5 °C/mm in the paper).
	r, err := Fig2DieVsPackage(nil, At(Coarse))
	if err != nil {
		t.Fatal(err)
	}
	if r.Die.MaxC <= r.Pkg.MaxC+10 {
		t.Fatalf("die max %.1f should clearly exceed package max %.1f", r.Die.MaxC, r.Pkg.MaxC)
	}
	if r.Die.MaxGradCPerMM <= 2*r.Pkg.MaxGradCPerMM {
		t.Fatalf("die gradient %.2f should be a multiple of package gradient %.2f",
			r.Die.MaxGradCPerMM, r.Pkg.MaxGradCPerMM)
	}
	// Calibrated bands around the paper's values.
	if r.Die.MaxC < 55 || r.Die.MaxC > 85 {
		t.Fatalf("die max %.1f outside calibrated band (paper 66.1)", r.Die.MaxC)
	}
	if r.Pkg.MaxC < 40 || r.Pkg.MaxC > 60 {
		t.Fatalf("pkg max %.1f outside calibrated band (paper 46.4)", r.Pkg.MaxC)
	}
	if len(r.DieMap) != r.Grid.Cells() || len(r.PkgMap) != r.Grid.Cells() {
		t.Fatal("maps missing")
	}
	if r.TotalPowerW < 60 || r.TotalPowerW > 85 {
		t.Fatalf("worst-case power %.1f outside band", r.TotalPowerW)
	}
}

func TestFig3Shape(t *testing.T) {
	rows := Fig3NormalizedExecTime()
	if len(rows) != 13 {
		t.Fatalf("got %d rows, want 13", len(rows))
	}
	cfgs := workload.Fig3Configs()
	for _, row := range rows {
		if len(row.NormToQoS) != len(cfgs) {
			t.Fatalf("%s: %d entries", row.Bench, len(row.NormToQoS))
		}
		// The native configuration (8,16,fmax) normalized to the 2x QoS
		// limit is exactly 0.5.
		last := row.NormToQoS[len(row.NormToQoS)-1]
		if math.Abs(last-0.5) > 1e-9 {
			t.Fatalf("%s native point = %v, want 0.5", row.Bench, last)
		}
		// (2,4,fmax) is the slowest plotted configuration.
		for i := 1; i < len(row.NormToQoS); i++ {
			if row.NormToQoS[i] > row.NormToQoS[0]+1e-9 {
				t.Fatalf("%s: config %d slower than (2,4)", row.Bench, i)
			}
		}
	}
	// Fig. 3 shows several benchmarks above the QoS limit at (2,4,fmax).
	var above int
	for _, row := range rows {
		if row.NormToQoS[0] > 1 {
			above++
		}
	}
	if above < 6 {
		t.Fatalf("only %d benchmarks above the 2x QoS at (2,4,fmax)", above)
	}
}

func TestTableIExact(t *testing.T) {
	rows := TableICStatePower()
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	want := map[power.CState][3]float64{
		power.POLL: {27, 32, 40},
		power.C1:   {14, 15, 17},
		power.C1E:  {9, 9, 9},
	}
	for _, r := range rows {
		if r.PowerW != want[r.State] {
			t.Fatalf("%v = %v, want %v", r.State, r.PowerW, want[r.State])
		}
	}
}

func TestFig5OrientationOrdering(t *testing.T) {
	rows, err := Fig5Orientation(nil, At(Coarse))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d orientations", len(rows))
	}
	byO := map[thermosyphon.Orientation]OrientationResult{}
	for _, r := range rows {
		byO[r.Orientation] = r
	}
	w := byO[thermosyphon.InletWest]
	// §VI-A: Design 1 (east-west channels, inlet west) beats Design 2
	// (north-south) on both package and die hot spots.
	for _, o := range []thermosyphon.Orientation{thermosyphon.InletNorth, thermosyphon.InletSouth, thermosyphon.InletEast} {
		if w.Die.MaxC >= byO[o].Die.MaxC {
			t.Fatalf("inlet-west die %.2f should beat %v die %.2f", w.Die.MaxC, o, byO[o].Die.MaxC)
		}
		if w.Pkg.MaxC >= byO[o].Pkg.MaxC {
			t.Fatalf("inlet-west pkg %.2f should beat %v pkg %.2f", w.Pkg.MaxC, o, byO[o].Pkg.MaxC)
		}
	}
	if len(w.PkgMap) == 0 {
		t.Fatal("package map missing")
	}
}

// TestFig5ChannelColumns pins the coarse worst-channel view: in every
// orientation several channels saturate at the clamped exit quality, and
// the tie goes to channel 6, which dries out earliest.
func TestFig5ChannelColumns(t *testing.T) {
	res, err := runFig5(nil, At(Coarse))
	if err != nil {
		t.Fatal(err)
	}
	_, rows := res.Tables[0].strings()
	want := [][]string{
		{"inlet-west", "6", "7.4", "0.99", "0.32"},
		{"inlet-east", "6", "7.3", "0.99", "0.58"},
		{"inlet-north", "6", "6.8", "0.99", "0.27"},
		{"inlet-south", "6", "6.8", "0.99", "0.47"},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d orientation rows, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		got := append([]string{row[0]}, row[len(row)-4:]...)
		if strings.Join(got, " ") != strings.Join(want[i], " ") {
			t.Errorf("row %d channel columns %q, want %q", i, got, want[i])
		}
	}
	if note := res.Notes[len(res.Notes)-1]; !strings.Contains(note, "chosen orientation: inlet-west") {
		t.Errorf("last note %q does not choose inlet-west", note)
	}
}

func TestFig6ScenarioDefinitions(t *testing.T) {
	scs := Fig6Scenarios()
	if len(scs) != 3 {
		t.Fatalf("got %d scenarios", len(scs))
	}
	for _, s := range scs {
		if len(s.Active) != 4 {
			t.Fatalf("%s has %d actives", s.Name, len(s.Active))
		}
	}
}

func TestFig6Orderings(t *testing.T) {
	rows, err := Fig6MappingScenarios(nil, At(Coarse))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	get := func(name string, idle power.CState) float64 {
		for _, r := range rows {
			if r.Scenario == name && r.Idle == idle {
				return r.Die.MaxC
			}
		}
		t.Fatalf("missing %s/%v", name, idle)
		return 0
	}
	// Paper Fig. 6d orderings. With POLL idles the conventional corner
	// balancing (scenario 2) wins; with C1 the staggered row-exclusive
	// mapping (scenario 1) wins; the clustered mapping is always worst.
	s1p, s2p, s3p := get("scenario1-staggered", power.POLL), get("scenario2-corners", power.POLL), get("scenario3-clustered", power.POLL)
	s1c, s2c, s3c := get("scenario1-staggered", power.C1), get("scenario2-corners", power.C1), get("scenario3-clustered", power.C1)
	if !(s2p < s1p && s1p < s3p) {
		t.Fatalf("POLL ordering violated: s1=%.2f s2=%.2f s3=%.2f (paper: s2<s1<s3)", s1p, s2p, s3p)
	}
	if !(s1c < s2c && s2c < s3c) {
		t.Fatalf("C1 ordering violated: s1=%.2f s2=%.2f s3=%.2f (paper: s1<s2<s3)", s1c, s2c, s3c)
	}
	// Deeper idle states run cooler across the board.
	if s1c >= s1p || s2c >= s2p || s3c >= s3p {
		t.Fatal("C1 must be cooler than POLL for every scenario")
	}
}

func TestApproachNames(t *testing.T) {
	for _, a := range Approaches() {
		if a.String() == "" {
			t.Fatal("unnamed approach")
		}
	}
	if Proposed.String() != "Proposed" {
		t.Fatalf("Proposed = %q", Proposed.String())
	}
}

func TestTableIIOrderings(t *testing.T) {
	// Run a three-benchmark subset at coarse resolution to keep the test
	// fast while still averaging across distinct workload characters.
	var subset []workload.Benchmark
	for _, name := range []string{"canneal", "freqmine", "raytrace"} {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		subset = append(subset, b)
	}
	rows, err := TableIIPolicyComparison(nil, At(Coarse), subset)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows", len(rows))
	}
	get := func(a Approach, q workload.QoS) TableIIRow {
		for _, r := range rows {
			if r.Approach == a && r.QoS == q {
				return r
			}
		}
		t.Fatalf("missing %v/%v", a, q)
		return TableIIRow{}
	}
	for _, q := range []workload.QoS{workload.QoS1x, workload.QoS2x, workload.QoS3x} {
		p := get(Proposed, q)
		c := get(SoACoskun, q)
		s := get(SoASabry, q)
		// The paper's headline: proposed beats both baselines on die hot
		// spot and gradient at every QoS level; [7] is the worst mapping.
		if p.DieMaxC >= c.DieMaxC || p.DieMaxC >= s.DieMaxC {
			t.Fatalf("@%s: proposed die %.2f not best (%.2f / %.2f)", q, p.DieMaxC, c.DieMaxC, s.DieMaxC)
		}
		// At 1x all stacks run the full machine, so gradients differ only
		// through the design and can tie; the mapping-driven gradient
		// advantage is asserted where the policy has freedom (2x, 3x).
		if q != workload.QoS1x && (p.DieGradCPerMM >= c.DieGradCPerMM || p.DieGradCPerMM >= s.DieGradCPerMM) {
			t.Fatalf("@%s: proposed gradient %.2f not best (%.2f / %.2f)", q, p.DieGradCPerMM, c.DieGradCPerMM, s.DieGradCPerMM)
		}
		if q != workload.QoS1x && s.DieMaxC <= c.DieMaxC {
			t.Fatalf("@%s: Sabry %.2f should be worst vs Coskun %.2f", q, s.DieMaxC, c.DieMaxC)
		}
	}
	// Looser QoS lets the proposed approach run cooler.
	if !(get(Proposed, workload.QoS3x).DieMaxC < get(Proposed, workload.QoS2x).DieMaxC &&
		get(Proposed, workload.QoS2x).DieMaxC < get(Proposed, workload.QoS1x).DieMaxC) {
		t.Fatal("proposed die max should fall as QoS relaxes")
	}
}

func TestFig7Gap(t *testing.T) {
	r, err := Fig7ThermalMaps(nil, At(Coarse))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 71.5 vs 78.2 °C — the proposed map must be clearly cooler.
	gap := r.SoAMax - r.ProposedMax
	if gap < 3 || gap > 15 {
		t.Fatalf("Fig7 gap %.1f °C outside band (paper 6.7)", gap)
	}
	if len(r.ProposedMap) == 0 || len(r.SoAMap) == 0 {
		t.Fatal("maps missing")
	}
}

func TestCoolingPowerStudy(t *testing.T) {
	r, err := CoolingPowerStudy(nil, At(Coarse))
	if err != nil {
		t.Fatal(err)
	}
	// §VIII-B shape: the baseline needs colder water (paper 20 vs 30 °C)
	// and the chiller reduction approaches the paper's ≥45 %.
	if r.BaselineWaterC >= r.ProposedWaterC-3 {
		t.Fatalf("baseline water %.1f should be clearly colder than %.1f", r.BaselineWaterC, r.ProposedWaterC)
	}
	if r.ReductionChiller < 0.30 {
		t.Fatalf("chiller reduction %.2f below reproduction floor (paper ≥0.45)", r.ReductionChiller)
	}
	if r.ReductionEq1 <= 0 {
		t.Fatalf("Eq1 reduction %.2f should be positive", r.ReductionEq1)
	}
	if r.ProposedBudget.ChillerPowerW >= r.BaselineBudget.ChillerPowerW {
		t.Fatal("proposed chiller power must be lower")
	}
}

func TestDesignSpaceStudy(t *testing.T) {
	r, err := DesignSpaceStudy(nil, At(Coarse))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 20 {
		t.Fatalf("got %d design points", len(r.Points))
	}
	if !r.Best.Feasible {
		t.Fatal("best point must be feasible")
	}
	// All points should hold TCASE_MAX comfortably at the design point.
	for _, p := range r.Points {
		if p.TCaseC <= 30 || p.TCaseC >= 85 {
			t.Fatalf("%s@%.2f tcase %.1f implausible", p.Fluid, p.FillingRatio, p.TCaseC)
		}
	}
	// Dryout shrinks with filling ratio for each fluid (§VI-B mechanism).
	byFluid := map[string][]DesignPoint{}
	for _, p := range r.Points {
		byFluid[p.Fluid] = append(byFluid[p.Fluid], p)
	}
	for fl, pts := range byFluid {
		for i := 1; i < len(pts); i++ {
			if pts[i].FillingRatio > pts[i-1].FillingRatio && pts[i].DryoutCells > pts[i-1].DryoutCells {
				t.Fatalf("%s: dryout grew with fill (%d → %d)", fl, pts[i-1].DryoutCells, pts[i].DryoutCells)
			}
		}
	}
	if r.WaterSelection.FlowKgH <= 0 || r.WaterSelection.TCaseC >= 85 {
		t.Fatalf("bad water selection %+v", r.WaterSelection)
	}
}

func TestFullLoadMapping(t *testing.T) {
	cfg := workload.Config{Cores: 8, Threads: 16, Freq: power.FMax}
	m := FullLoadMapping(cfg, power.POLL)
	if len(m.ActiveCores) != 8 {
		t.Fatal("full load must use 8 cores")
	}
}
