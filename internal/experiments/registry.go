package experiments

import (
	"context"
	"fmt"

	"repro/internal/thermal"
	"repro/internal/workload"
)

// Experiment is one self-describing entry of the catalog: a stable name
// (the -exp flag value), a one-line description (the -list output), and a
// typed run entry point. Run must honor every field of RunConfig and
// return promptly with ctx.Err() once the context is cancelled.
type Experiment struct {
	Name        string
	Description string
	Run         func(ctx context.Context, cfg RunConfig) (*Result, error)
}

// catalog is the paper's evaluation, in paper order, followed by the
// extension studies. Everything cmd/paperbench serves comes from here,
// and its order is presentation order. Names are unique, non-empty and
// never "all", which the CLI reserves for running everything.
var catalog = []Experiment{
	{
		Name:        "fig2",
		Description: "Fig. 2 — die vs package thermal profile, non-optimized design+mapping",
		Run:         runFig2,
	},
	{
		Name:        "fig3",
		Description: "Fig. 3 — execution time normalized to the 2x QoS limit",
		Run:         runFig3,
	},
	{
		Name:        "tablei",
		Description: "Table I — C-state power of the Xeon E5 v4",
		Run:         runTableI,
	},
	{
		Name:        "fig5",
		Description: "Fig. 5 — thermosyphon orientation study, all cores loaded",
		Run:         runFig5,
	},
	{
		Name:        "fig6",
		Description: "Fig. 6 — three 4-core mappings × idle C-state",
		Run:         runFig6,
	},
	{
		Name:        "tableii",
		Description: "Table II — policy stacks × QoS over the PARSEC roster",
		Run:         runTableII,
	},
	{
		Name:        "fig7",
		Description: "Fig. 7 — sample die maps at 2x QoS, proposed vs state of the art",
		Run:         runFig7,
	},
	{
		Name:        "cooling",
		Description: "§VIII-B — cooling power needed to match hot spots",
		Run:         runCooling,
	},
	{
		Name:        "design",
		Description: "§VI-B/C — refrigerant × filling design space and water point",
		Run:         runDesign,
	},
	{
		Name:        "scaling",
		Description: "extension — linear-solver work vs grid resolution",
		Run:         runScaling,
	},
	{
		Name:        "orientmap",
		Description: "extension — orientation × mapping cross study",
		Run:         runOrientMap,
	},
	{
		Name:        "scalability",
		Description: "extension — mapping rule on a scaled 16-core die",
		Run:         runScalability,
	},
	{
		Name:        "runtime",
		Description: "extension — §VII closed-loop controller under a forced emergency",
		Run:         runRuntime,
	},
	{
		Name:        "datacenter",
		Description: "extension — nested N-rack × M-blade fixed point, fleet ladder to 1000 blades",
		Run:         runDatacenter,
	},
	{
		Name:        "diurnal",
		Description: "extension — 24 h diurnal fleet transient, quasi-static hourly solves",
		Run:         runDiurnal,
	},
	{
		Name:        "faults",
		Description: "extension — cooling-failure survival sweep, fault kind × severity on the 1000-blade fleet",
		Run:         runFaults,
	},
}

// Lookup resolves a catalog experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range catalog {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns every experiment in catalog order.
func All() []Experiment { return append([]Experiment(nil), catalog...) }

// Names returns the experiment names in catalog order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, e := range catalog {
		out[i] = e.Name
	}
	return out
}

func runFig2(ctx context.Context, cfg RunConfig) (*Result, error) {
	r, err := Fig2DieVsPackage(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newResult("fig2", "Fig. 2 — die vs package profile, non-optimized design+mapping", cfg)
	out.notef("(paper: die 66.1/55.9 °C ∇6.6; package 46.4/42.9 °C ∇0.5)")
	t := Table{Name: "profile", Columns: []Column{
		Col("plane", -1), Col("θmax(°C)", 1), Col("θavg(°C)", 1), Col("∇θmax(°C/mm)", 2),
	}}
	t.AddRow("Die", r.Die.MaxC, r.Die.MeanC, r.Die.MaxGradCPerMM)
	t.AddRow("Package", r.Pkg.MaxC, r.Pkg.MeanC, r.Pkg.MaxGradCPerMM)
	out.Tables = append(out.Tables, t)
	if err := out.addMap(cfg, "fig2_die", r.Grid, r.DieMap); err != nil {
		return nil, err
	}
	if err := out.addMap(cfg, "fig2_package", r.Grid, r.PkgMap); err != nil {
		return nil, err
	}
	return out, nil
}

func runFig3(ctx context.Context, cfg RunConfig) (*Result, error) {
	// Pure model evaluation, but the registry contract still holds: a
	// cancelled context must not produce a result (and, as everywhere
	// else, a nil ctx means "not cancellable").
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	rows := Fig3NormalizedExecTime()
	out := newResult("fig3", "Fig. 3 — execution time normalized to the 2x QoS limit (>1 violates)", cfg)
	cols := []Column{Col("benchmark", -1)}
	for _, c := range workload.Fig3Configs() {
		cols = append(cols, Col(fmt.Sprintf("(%d,%d)", c.Cores, c.Threads), 2))
	}
	t := Table{Name: "normalized", Columns: cols}
	for _, r := range rows {
		cells := []any{r.Bench}
		for _, v := range r.NormToQoS {
			cells = append(cells, v)
		}
		t.AddRow(cells...)
	}
	out.Tables = append(out.Tables, t)
	return out, nil
}

func runTableI(ctx context.Context, cfg RunConfig) (*Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	out := newResult("tablei", "Table I — C-state power of the Xeon E5 v4 (all 8 cores)", cfg)
	t := Table{Name: "cstates", Columns: []Column{
		Col("state", -1), Col("latency", -1),
		Col("W@2.6GHz", 1), Col("W@2.9GHz", 1), Col("W@3.2GHz", 1),
	}}
	for _, r := range TableICStatePower() {
		t.AddRow(r.State.String(), r.Latency, r.PowerW[0], r.PowerW[1], r.PowerW[2])
	}
	out.Tables = append(out.Tables, t)
	return out, nil
}

func runFig5(ctx context.Context, cfg RunConfig) (*Result, error) {
	rows, err := Fig5Orientation(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newResult("fig5", "Fig. 5 — thermosyphon orientation study, all cores loaded", cfg)
	out.notef("(paper: Design1 E-W pkg 52.7 ∇0.33, die 73.2; Design2 N-S pkg 53.5 ∇0.43, die 79.4)")
	t := Table{Name: "orientations", Columns: []Column{
		Col("orientation", -1),
		Col("die θmax", 1), Col("die θavg", 1), Col("die ∇θmax", 2),
		Col("pkg θmax", 1), Col("pkg θavg", 1), Col("pkg ∇θmax", 2),
	}}
	grid := cfg.Resolution.Grid()
	for _, r := range rows {
		t.AddRow(r.Orientation.String(),
			r.Die.MaxC, r.Die.MeanC, r.Die.MaxGradCPerMM,
			r.Pkg.MaxC, r.Pkg.MeanC, r.Pkg.MaxGradCPerMM)
		if r.Orientation.Horizontal() {
			if err := out.addMap(cfg, "fig5_pkg_"+r.Orientation.String(), grid, r.PkgMap); err != nil {
				return nil, err
			}
		}
	}
	out.Tables = append(out.Tables, t)
	return out, nil
}

func runFig6(ctx context.Context, cfg RunConfig) (*Result, error) {
	rows, err := Fig6MappingScenarios(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newResult("fig6", "Fig. 6 — three 4-core mappings × idle C-state (die plane)", cfg)
	out.notef("(paper θmax: POLL 68.2/65.0/77.6; C1 57.1/64.2/73.3)")
	t := Table{Name: "scenarios", Columns: []Column{
		Col("scenario", -1), Col("idle", -1),
		Col("θmax(°C)", 1), Col("θavg(°C)", 1), Col("∇θmax(°C/mm)", 2),
	}}
	for _, r := range rows {
		t.AddRow(r.Scenario, r.Idle.String(), r.Die.MaxC, r.Die.MeanC, r.Die.MaxGradCPerMM)
	}
	out.Tables = append(out.Tables, t)
	return out, nil
}

func runTableII(ctx context.Context, cfg RunConfig) (*Result, error) {
	rows, err := TableIIPolicyComparison(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	out := newResult("tableii", "Table II — hot spots and gradients per approach and QoS (13-benchmark average)", cfg)
	out.notef("(paper die θmax: Proposed 78.3/72.2/68.4; [8]+[27]+[9] 83.0/79.5/77.8; [8]+[27]+[7] 83.0/80.5/79.1)")
	t := Table{Name: "policies", Columns: []Column{
		Col("approach", -1), Col("QoS", -1),
		Col("die θmax", 1), Col("die ∇θmax", 2),
		Col("pkg θmax", 1), Col("pkg ∇θmax", 2),
		Col("avg W", 1),
	}}
	for _, r := range rows {
		t.AddRow(r.Approach.String(), r.QoS.String(),
			r.DieMaxC, r.DieGradCPerMM, r.PkgMaxC, r.PkgGradCPerMM, r.AvgPowerW)
	}
	out.Tables = append(out.Tables, t)
	return out, nil
}

func runFig7(ctx context.Context, cfg RunConfig) (*Result, error) {
	r, err := Fig7ThermalMaps(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newResult("fig7", "Fig. 7 — sample die maps at 2x QoS (paper: proposed 71.5 °C vs SoA 78.2 °C)", cfg)
	out.notef("proposed (%s): %.1f °C   state of the art: %.1f °C   gap %.1f °C",
		r.ProposedBench, r.ProposedMax, r.SoAMax, r.SoAMax-r.ProposedMax)
	t := Table{Name: "hotspots", Columns: []Column{Col("map", -1), Col("θmax(°C)", 1)}}
	t.AddRow("proposed", r.ProposedMax)
	t.AddRow("state of the art", r.SoAMax)
	out.Tables = append(out.Tables, t)
	grid := cfg.Resolution.Grid()
	if err := out.addMap(cfg, "fig7_proposed", grid, r.ProposedMap); err != nil {
		return nil, err
	}
	if err := out.addMap(cfg, "fig7_soa", grid, r.SoAMap); err != nil {
		return nil, err
	}
	return out, nil
}

func runCooling(ctx context.Context, cfg RunConfig) (*Result, error) {
	r, err := CoolingPowerStudy(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newResult("cooling", "§VIII-B — cooling power (paper: 20 °C water needed without the mapping; ≥45% chiller reduction)", cfg)
	out.notef("baseline needs %.1f °C water (proposed: %.1f °C) to match a %.1f °C hot spot",
		r.BaselineWaterC, r.ProposedWaterC, r.HotspotC)
	t := Table{Name: "budgets", Columns: []Column{
		Col("approach", -1), Col("water in (°C)", 1), Col("water ΔT (°C)", 2),
		Col("Eq.(1) P (W)", 1), Col("chiller P (W)", 1),
	}}
	t.AddRow("Proposed", r.ProposedWaterC, r.ProposedDeltaT, r.ProposedBudget.Eq1PowerW, r.ProposedBudget.ChillerPowerW)
	t.AddRow("[8]+[27]+[9]", r.BaselineWaterC, r.BaselineDeltaT, r.BaselineBudget.Eq1PowerW, r.BaselineBudget.ChillerPowerW)
	out.Tables = append(out.Tables, t)
	// The reductions are commentary, not another budget row: keeping them
	// out of the table preserves the numbers-stay-numbers JSON contract.
	out.notef("reduction: Eq.(1) %.1f%%, chiller %.1f%%", r.ReductionEq1*100, r.ReductionChiller*100)
	return out, nil
}

func runDesign(ctx context.Context, cfg RunConfig) (*Result, error) {
	r, err := DesignSpaceStudy(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newResult("design", "§VI-B/C — design space (paper choice: R236fa @ 55% fill, 7 kg/h @ 30 °C)", cfg)
	t := Table{Name: "points", Columns: []Column{
		Col("fluid", -1), Col("fill", 2), Col("die θmax", 1), Col("TCASE", 1),
		Col("dryout cells", -1), Col("feasible", -1),
	}}
	for _, p := range r.Points {
		t.AddRow(p.Fluid, p.FillingRatio, p.DieMaxC, p.TCaseC, p.DryoutCells, p.Feasible)
	}
	out.Tables = append(out.Tables, t)
	out.notef("best feasible: %s @ %.2f (die %.1f °C)", r.Best.Fluid, r.Best.FillingRatio, r.Best.DieMaxC)
	out.notef("water selection: %.0f kg/h @ %.0f °C (TCASE %.1f °C, limit 85)",
		r.WaterSelection.FlowKgH, r.WaterSelection.WaterInC, r.WaterSelection.TCaseC)
	return out, nil
}

// scalingSizes picks the grid-resolution ladder for the solver-scaling
// extension: modest at coarse/medium so the Jacobi-CG reference stays
// affordable, up to the 256×256 rack-scale grids at full resolution.
func scalingSizes(res Resolution) []int {
	switch res {
	case Coarse:
		return []int{16, 32, 64}
	case Medium:
		return []int{32, 64, 128}
	default:
		return []int{64, 128, 256}
	}
}

func runScaling(ctx context.Context, cfg RunConfig) (*Result, error) {
	// The scaling study contrasts the two solvers, so it always runs both
	// whatever cfg.Solver selects.
	solvers := []thermal.Solver{thermal.SolverCG, thermal.SolverMGPCG}
	cells, err := ExtResolutionScaling(ctx, cfg, scalingSizes(cfg.Resolution), solvers)
	if err != nil {
		return nil, err
	}
	out := newResult("scaling", "extension — solver scaling with grid resolution (full-load steady solve per size)", cfg)
	// Wall time is deliberately absent: it varies run to run, and the
	// Result feeds byte-reproducible artifacts (the markdown report, the
	// -json output). Work is reported in deterministic units (iterations
	// and operator applications); callers who want wall clock use the
	// typed ExtResolutionScaling API directly.
	t := Table{Name: "cells", Columns: []Column{
		Col("grid", -1), Col("unknowns", -1), Col("solver", -1), Col("die θmax", 1),
		Col("outer", -1), Col("lin iters", -1), Col("applies", -1),
	}}
	for _, c := range cells {
		t.AddRow(fmt.Sprintf("%d×%d", c.NX, c.NY), c.Unknowns, c.Solver,
			c.DieMaxC, c.OuterIters, c.LinIters, c.Applies)
	}
	out.Tables = append(out.Tables, t)
	return out, nil
}

func runOrientMap(ctx context.Context, cfg RunConfig) (*Result, error) {
	cells, err := ExtOrientationMapping(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newResult("orientmap", "extension — orientation × mapping cross study (C1 idles, die plane)", cfg)
	t := Table{Name: "cells", Columns: []Column{
		Col("orientation", -1), Col("scenario", -1),
		Col("θmax(°C)", 1), Col("θavg(°C)", 1), Col("∇θmax(°C/mm)", 2),
	}}
	for _, c := range cells {
		t.AddRow(c.Orientation.String(), c.Scenario, c.Die.MaxC, c.Die.MeanC, c.Die.MaxGradCPerMM)
	}
	out.Tables = append(out.Tables, t)
	return out, nil
}

func runScalability(ctx context.Context, cfg RunConfig) (*Result, error) {
	cells, err := ExtScalability(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newResult("scalability", "extension — mapping rule on scaled dies (half the cores loaded)", cfg)
	t := Table{Name: "cells", Columns: []Column{
		Col("cores", -1), Col("mapping", -1),
		Col("die θmax", 1), Col("die θavg", 1), Col("dryout %", 1),
	}}
	for _, c := range cells {
		t.AddRow(c.Cores, c.Mapping, c.Die.MaxC, c.Die.MeanC, c.DryoutPct*100)
	}
	out.Tables = append(out.Tables, t)
	return out, nil
}

func runDatacenter(ctx context.Context, cfg RunConfig) (*Result, error) {
	points, err := ExtDatacenterScale(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newResult("datacenter", "extension — datacenter nested solve, fleet ladder (cold start per rung)", cfg)
	// Wall time is deliberately absent (it lives in the typed
	// ExtDatacenterScale API and the Go benchmarks): the Result feeds
	// byte-reproducible artifacts, so cost is reported in deterministic
	// units — outer iterations and coupled blade solves.
	t := Table{Name: "ladder", Columns: []Column{
		Col("blades", -1), Col("racks", -1), Col("loops", -1), Col("classes", -1),
		Col("outer", -1), Col("solves", -1), Col("converged", -1),
		Col("IT kW", 2), Col("die θmax", 1), Col("supply θmax", 2), Col("PUE", 3),
	}}
	for _, p := range points {
		t.AddRow(p.Blades, p.Racks, p.Loops, p.Classes,
			p.OuterIterations, p.BladeSolves, p.Converged,
			p.ITPowerW/1000, p.MaxDieC, p.MaxSupplyC, p.PUE)
	}
	out.Tables = append(out.Tables, t)
	return out, nil
}

func runDiurnal(ctx context.Context, cfg RunConfig) (*Result, error) {
	hours, err := ExtDatacenterDiurnal(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newResult("diurnal", "extension — 24 h diurnal fleet transient (32 blades, 2 loops, warm-carried)", cfg)
	t := Table{Name: "hours", Columns: []Column{
		Col("hour", -1), Col("load", 2), Col("outer", -1),
		Col("IT kW", 2), Col("die θmax", 1), Col("supply θmax", 2), Col("PUE", 3),
	}}
	var peak, valley DatacenterHour
	valley.MaxDieC = 1e9
	for _, h := range hours {
		t.AddRow(h.Hour, h.LoadFactor, h.OuterIterations,
			h.ITPowerW/1000, h.MaxDieC, h.MaxSupplyC, h.PUE)
		if h.MaxDieC > peak.MaxDieC {
			peak = h
		}
		if h.MaxDieC < valley.MaxDieC {
			valley = h
		}
	}
	out.Tables = append(out.Tables, t)
	out.notef("daily swing: die %.1f → %.1f °C, IT %.2f → %.2f kW (valley %02d:00, peak %02d:00)",
		valley.MaxDieC, peak.MaxDieC, valley.ITPowerW/1000, peak.ITPowerW/1000, valley.Hour, peak.Hour)
	return out, nil
}

func runFaults(ctx context.Context, cfg RunConfig) (*Result, error) {
	points, err := ExtFailureScenarios(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return faultsResult(points, cfg), nil
}

// faultsResult renders survival points into the uniform Result — split
// from runFaults so the table contract is testable without solving the
// 1000-blade fleet.
func faultsResult(points []FailurePoint, cfg RunConfig) *Result {
	out := newResult("faults", "extension — cooling-failure survival sweep (1000-blade fleet, graceful degradation)", cfg)
	t := Table{Name: "survival", Columns: []Column{
		Col("scenario", -1), Col("feasible", -1), Col("converged", -1),
		Col("outer", -1), Col("escalations", -1),
		Col("throttled", -1), Col("max steps", -1), Col("infeasible", -1),
		Col("IT kW", 2), Col("die θmax", 1), Col("supply θmax", 2), Col("PUE", 3),
	}}
	var worst FailurePoint
	for _, p := range points {
		t.AddRow(p.Scenario, p.Feasible, p.Converged,
			p.OuterIterations, p.Escalations,
			p.ThrottledBlades, p.MaxThrottleSteps, p.InfeasibleBlades,
			p.ITPowerW/1000, p.MaxDieC, p.MaxSupplyC, p.PUE)
		if p.MaxDieC > worst.MaxDieC {
			worst = p
		}
	}
	out.Tables = append(out.Tables, t)
	out.notef("hottest scenario: %s (die %.1f °C, %d throttled, %d infeasible)",
		worst.Scenario, worst.MaxDieC, worst.ThrottledBlades, worst.InfeasibleBlades)
	return out
}

func runRuntime(ctx context.Context, cfg RunConfig) (*Result, error) {
	r, err := ExtRuntimeControl(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newResult("runtime", "extension — §VII closed-loop control under a forced thermal emergency", cfg)
	t := Table{Name: "regulation", Columns: []Column{
		Col("nominal TCASE", 1), Col("limit", 1), Col("final TCASE", 1),
		Col("flow actions", -1), Col("dvfs actions", -1), Col("final flow kg/h", 1), Col("QoS held", -1),
	}}
	t.AddRow(r.NominalTCase, r.Limit, r.FinalTCase, r.FlowActions, r.DVFSActions, r.FinalFlowKgH, r.QoSHeld)
	out.Tables = append(out.Tables, t)
	return out, nil
}
