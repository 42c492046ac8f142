// Benchmarks regenerating every table and figure of the paper, one bench
// per artifact, plus ablation benches for the design choices DESIGN.md
// calls out. Domain results are attached via b.ReportMetric so a -bench
// run doubles as a summary of the reproduction:
//
//	go test -bench=. -benchmem
//
// The benches run at Coarse resolution to stay fast; cmd/paperbench
// regenerates the same artifacts at figure quality.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// BenchmarkFig2DieVsPackage regenerates Fig. 2 / table 2d (E1).
func BenchmarkFig2DieVsPackage(b *testing.B) {
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2DieVsPackage(nil, experiments.At(experiments.Coarse))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Die.MaxC, "dieMaxC")
	b.ReportMetric(last.Pkg.MaxC, "pkgMaxC")
	b.ReportMetric(last.Die.MaxGradCPerMM, "dieGradC/mm")
}

// BenchmarkFig3NormalizedExecTime regenerates Fig. 3 (E2).
func BenchmarkFig3NormalizedExecTime(b *testing.B) {
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig3NormalizedExecTime()
	}
	b.ReportMetric(float64(len(rows)), "benchmarks")
}

// BenchmarkTableICStatePower regenerates Table I (E3).
func BenchmarkTableICStatePower(b *testing.B) {
	var rows []experiments.TableIRow
	for i := 0; i < b.N; i++ {
		rows = experiments.TableICStatePower()
	}
	b.ReportMetric(rows[0].PowerW[2], "pollW@3.2GHz")
}

// BenchmarkFig5Orientation regenerates the Fig. 5 orientation study (E4).
func BenchmarkFig5Orientation(b *testing.B) {
	var rows []experiments.OrientationResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig5Orientation(nil, experiments.At(experiments.Coarse))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Orientation == thermosyphon.InletWest {
			b.ReportMetric(r.Die.MaxC, "design1DieMaxC")
		}
		if r.Orientation == thermosyphon.InletNorth {
			b.ReportMetric(r.Die.MaxC, "design2DieMaxC")
		}
	}
}

// BenchmarkFig6MappingScenarios regenerates Fig. 6 (E5).
func BenchmarkFig6MappingScenarios(b *testing.B) {
	var rows []experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig6MappingScenarios(nil, experiments.At(experiments.Coarse))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Idle == power.C1 && r.Scenario == "scenario1-staggered" {
			b.ReportMetric(r.Die.MaxC, "s1C1DieMaxC")
		}
	}
}

// BenchmarkTableIIPolicyComparison regenerates Table II (E6) on a
// three-benchmark subset.
func BenchmarkTableIIPolicyComparison(b *testing.B) {
	subset := tableIISubset(b)
	var rows []experiments.TableIIRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableIIPolicyComparison(nil, experiments.At(experiments.Coarse), subset)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.QoS == workload.QoS2x {
			switch r.Approach {
			case experiments.Proposed:
				b.ReportMetric(r.DieMaxC, "proposed2xDieC")
			case experiments.SoASabry:
				b.ReportMetric(r.DieMaxC, "sabry2xDieC")
			}
		}
	}
}

func tableIISubset(tb testing.TB) []workload.Benchmark {
	tb.Helper()
	var subset []workload.Benchmark
	for _, name := range []string{"canneal", "freqmine", "raytrace"} {
		bench, err := workload.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		subset = append(subset, bench)
	}
	return subset
}

// BenchmarkFig7ThermalMaps regenerates the Fig. 7 map pair (E7).
func BenchmarkFig7ThermalMaps(b *testing.B) {
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig7ThermalMaps(nil, experiments.At(experiments.Coarse))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ProposedMax, "proposedDieC")
	b.ReportMetric(r.SoAMax, "soaDieC")
}

// BenchmarkCoolingPower regenerates the §VIII-B cooling study (E8).
func BenchmarkCoolingPower(b *testing.B) {
	var r *experiments.CoolingResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.CoolingPowerStudy(nil, experiments.At(experiments.Coarse))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ReductionChiller*100, "chillerRed%")
	b.ReportMetric(r.BaselineWaterC, "baseWaterC")
}

// BenchmarkDesignSpace regenerates the §VI-B/C design study (E9).
func BenchmarkDesignSpace(b *testing.B) {
	var r *experiments.DesignSpaceResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.DesignSpaceStudy(nil, experiments.At(experiments.Coarse))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Best.DieMaxC, "bestDieMaxC")
	b.ReportMetric(r.WaterSelection.WaterInC, "waterC")
}

// BenchmarkAblationRowExclusive isolates the row-exclusive mapping rule:
// the same benchmark and configuration with C1 idles, mapped by the
// proposed policy versus the clustered worst case.
func BenchmarkAblationRowExclusive(b *testing.B) {
	sys, err := experiments.NewSystem(thermosyphon.DefaultDesign(), experiments.Coarse)
	if err != nil {
		b.Fatal(err)
	}
	bench, err := workload.ByName("canneal")
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.Config{Cores: 4, Threads: 8, Freq: power.FMax}
	proposed, err := core.MapThreads(bench, cfg)
	if err != nil {
		b.Fatal(err)
	}
	clustered := core.Mapping{ActiveCores: []int{0, 1, 4, 5}, IdleState: proposed.IdleState, Config: cfg}
	ses := sys.NewSession(cosim.CarryWarmStart(false))
	var dProposed, dClustered float64
	for i := 0; i < b.N; i++ {
		dp, _, _, err := experiments.SolveMappingSession(nil, ses, bench, proposed, thermosyphon.DefaultOperating())
		if err != nil {
			b.Fatal(err)
		}
		dc, _, _, err := experiments.SolveMappingSession(nil, ses, bench, clustered, thermosyphon.DefaultOperating())
		if err != nil {
			b.Fatal(err)
		}
		dProposed, dClustered = dp.MaxC, dc.MaxC
	}
	b.ReportMetric(dClustered-dProposed, "savedC")
}

// BenchmarkAblationFilling sweeps the filling ratio at the worst case,
// isolating the §VI-B dryout-vs-flooding trade-off.
func BenchmarkAblationFilling(b *testing.B) {
	bench, cfg := workload.WorstCase()
	m := experiments.FullLoadMapping(cfg, power.POLL)
	var spread float64
	for i := 0; i < b.N; i++ {
		var lo, hi float64 = 1e9, -1e9
		for _, fr := range []float64{0.25, 0.55, 0.85} {
			d := thermosyphon.DefaultDesign()
			d.FillingRatio = fr
			sys, err := experiments.NewSystem(d, experiments.Coarse)
			if err != nil {
				b.Fatal(err)
			}
			die, _, _, err := experiments.SolveMappingSession(nil, sys.NewSession(), bench, m, thermosyphon.DefaultOperating())
			if err != nil {
				b.Fatal(err)
			}
			if die.MaxC < lo {
				lo = die.MaxC
			}
			if die.MaxC > hi {
				hi = die.MaxC
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "fillSpreadC")
}

// BenchmarkAblationDryout compares the worst case at the design fill
// (dryout present on the channel tails) against the highest fill (dryout
// pushed out to x≈0.80 but the condenser partially flooded). The reported
// delta can be negative: at the worst case the flooding penalty of
// over-filling outweighs the dryout relief — exactly the §VI-B trade-off
// that makes 55 % the design point.
func BenchmarkAblationDryout(b *testing.B) {
	bench, cfg := workload.WorstCase()
	m := experiments.FullLoadMapping(cfg, power.POLL)
	normal := thermosyphon.DefaultDesign()
	noDry := thermosyphon.DefaultDesign()
	noDry.FillingRatio = 0.90 // highest fill: dryout pushed to x≈0.80
	var delta float64
	for i := 0; i < b.N; i++ {
		sysN, err := experiments.NewSystem(normal, experiments.Coarse)
		if err != nil {
			b.Fatal(err)
		}
		sysD, err := experiments.NewSystem(noDry, experiments.Coarse)
		if err != nil {
			b.Fatal(err)
		}
		dn, _, _, err := experiments.SolveMappingSession(nil, sysN.NewSession(), bench, m, thermosyphon.DefaultOperating())
		if err != nil {
			b.Fatal(err)
		}
		dd, _, _, err := experiments.SolveMappingSession(nil, sysD.NewSession(), bench, m, thermosyphon.DefaultOperating())
		if err != nil {
			b.Fatal(err)
		}
		delta = dn.MaxC - dd.MaxC
	}
	b.ReportMetric(delta, "dryoutCostC")
}

// BenchmarkExtOrientationMapping runs the orientation × mapping cross
// study (extension).
func BenchmarkExtOrientationMapping(b *testing.B) {
	var cells []experiments.OrientationMappingCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.ExtOrientationMapping(nil, experiments.At(experiments.Coarse))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cells)), "cells")
}

// BenchmarkExtRuntimeControl runs the §VII closed-loop stress (extension).
func BenchmarkExtRuntimeControl(b *testing.B) {
	var r *experiments.RuntimeControlResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.ExtRuntimeControl(nil, experiments.At(experiments.Coarse))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.FlowActions), "valveSteps")
}

// BenchmarkExtScalability runs the 16-core scaled-die study (extension).
func BenchmarkExtScalability(b *testing.B) {
	var cells []experiments.ScalabilityCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.ExtScalability(nil, experiments.At(experiments.Coarse))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		if c.Cores == 16 && c.Mapping == "staggered" {
			b.ReportMetric(c.Die.MaxC, "die16staggeredC")
		}
	}
}

// BenchmarkAblationLeakage quantifies the temperature-leakage coupling the
// paper neglects: extra watts and die heating at the worst case when
// leakage tracks temperature.
func BenchmarkAblationLeakage(b *testing.B) {
	sys, err := experiments.NewSystem(thermosyphon.DefaultDesign(), experiments.Coarse)
	if err != nil {
		b.Fatal(err)
	}
	bench, cfg := workload.WorstCase()
	m := experiments.FullLoadMapping(cfg, power.POLL)
	st := core.PackageState(bench, m)
	leak := power.DefaultLeakage()
	leak.RefC = 45
	ses := sys.NewSession(cosim.CarryWarmStart(false))
	refW := sys.Power.TotalPower(st)
	var extra float64
	for i := 0; i < b.N; i++ {
		res, err := ses.SolveSteadyLeakage(nil, st, thermosyphon.DefaultOperating(), leak)
		if err != nil {
			b.Fatal(err)
		}
		extra = res.TotalPowerW - refW
	}
	b.ReportMetric(extra, "leakExtraW")
}

// BenchmarkSteadySolve measures one coupled steady solve at coarse
// resolution — the inner kernel every experiment is built on.
func BenchmarkSteadySolve(b *testing.B) {
	sys, err := experiments.NewSystem(thermosyphon.DefaultDesign(), experiments.Coarse)
	if err != nil {
		b.Fatal(err)
	}
	bench, cfg := workload.WorstCase()
	m := experiments.FullLoadMapping(cfg, power.POLL)
	st := core.PackageState(bench, m)
	ses := sys.NewSession(cosim.CarryWarmStart(false))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ses.SolveSteady(nil, st, thermosyphon.DefaultOperating()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlan measures Algorithm 1 itself (selection + mapping).
func BenchmarkPlan(b *testing.B) {
	bench, err := workload.ByName("ferret")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.Plan(bench, workload.QoS2x); err != nil {
			b.Fatal(err)
		}
	}
}
