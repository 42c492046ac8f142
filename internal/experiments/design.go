package experiments

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/refrigerant"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// OrientationResult is one design's row in the Fig. 5 comparison.
type OrientationResult struct {
	Orientation thermosyphon.Orientation
	Die, Pkg    metrics.MapStats
	// PkgMap is the package-layer map for rendering Fig. 5a/5b.
	PkgMap []float64
	// Worst is the evaporator channel closest to dryout (the highest exit
	// quality) under the solved heat flux.
	Worst thermosyphon.ChannelSummary
}

// Fig5Orientation reproduces the §VI-A orientation study: all cores equally
// loaded, comparing evaporator orientations. The paper's Design 1
// (east-west channels) yields pkg 52.7/50.3 °C ∇0.33 versus Design 2
// (north-south) 53.5/50.6 °C ∇0.43; die 73.2 vs 79.4 °C. Each design also
// reports its worst channel, marched through the same solve's top-surface
// heat. The four designs are independent full co-simulations on one
// System, so they run through the sweep pool.
func Fig5Orientation(ctx context.Context, cfg RunConfig) ([]OrientationResult, error) {
	bench, wcfg := workload.WorstCase()
	m := FullLoadMapping(wcfg, power.POLL)
	cfg = cfg.SplitBudget(len(thermosyphon.Orientations()))
	sys, err := NewSystem(thermosyphon.DefaultDesign(), cfg.Resolution)
	if err != nil {
		return nil, err
	}
	pool := cfg.newPool(sys)
	defer pool.Close()
	return sweep.Run(ctx, thermosyphon.Orientations(), func(o thermosyphon.Orientation) (OrientationResult, error) {
		d := thermosyphon.DefaultDesign()
		d.Orientation = o
		ses, err := pool.Get(d)
		if err != nil {
			return OrientationResult{}, err
		}
		defer pool.Put(ses)
		op := thermosyphon.DefaultOperating()
		die, pkg, r, err := SolveMappingSession(ctx, ses, bench, m, op)
		if err != nil {
			return OrientationResult{}, fmt.Errorf("orientation %v: %w", o, err)
		}
		pkgMap, err := r.Field.LayerByName("spreader")
		if err != nil {
			return OrientationResult{}, err
		}
		report, err := d.ChannelReport(sys.Thermal.Grid(), r.Field.TopHeatPerCellInto(nil, r.BC), op)
		if err != nil {
			return OrientationResult{}, fmt.Errorf("orientation %v: %w", o, err)
		}
		worst, err := thermosyphon.WorstChannel(report)
		if err != nil {
			return OrientationResult{}, err
		}
		return OrientationResult{
			Orientation: o,
			Die:         die,
			Pkg:         pkg,
			PkgMap:      append([]float64(nil), pkgMap...),
			Worst:       worst,
		}, nil
	}, cfg.Workers)
}

// DesignPoint is one refrigerant/filling-ratio candidate in the §VI-B
// design-space study.
type DesignPoint struct {
	Fluid        string
	FillingRatio float64
	DieMaxC      float64
	TCaseC       float64
	// Feasible indicates TCASE stays below the 85 °C constraint at the
	// worst-case workload.
	Feasible bool
	// DryoutCells counts evaporator cells beyond critical quality.
	DryoutCells int
}

// DesignSpaceResult is the §VI-B/C design-space study output.
type DesignSpaceResult struct {
	Points []DesignPoint
	// Best is the feasible point with the lowest die hotspot.
	Best DesignPoint
	// WaterSelection is the §VI-C operating-point choice.
	WaterSelection WaterChoice
}

// WaterChoice records the §VI-C selection: the lowest flow and the warmest
// water that keep TCASE below TCASE_MAX for the worst case.
type WaterChoice struct {
	FlowKgH  float64
	WaterInC float64
	TCaseC   float64
}

// designFills are the §VI-B filling-ratio candidates.
var designFills = []float64{0.35, 0.45, 0.55, 0.65, 0.75}

// waterFlows and waterTemps span the §VI-C operating-point scan, ordered
// cheapest first: lowest flow outer, warmest water inner.
var (
	waterFlows = []float64{3, 5, 7, 9, 12}
	waterTemps = []float64{45, 40, 35, 30, 25, 20}
)

// DesignSpaceStudy sweeps refrigerant × filling ratio at the worst-case
// workload (§VI-B), then selects the cheapest water operating point that
// holds TCASE_MAX (§VI-C). The §VI-B grid fans out across the sweep pool
// and its results are identical to a serial run because the pool
// preserves input order; the §VI-C scan is serial and stops at the first
// accepted point. Both stages solve on one System.
func DesignSpaceStudy(ctx context.Context, cfg RunConfig) (*DesignSpaceResult, error) {
	bench, wcfg := workload.WorstCase()
	m := FullLoadMapping(wcfg, power.POLL)
	var out DesignSpaceResult
	sys, err := NewSystem(thermosyphon.DefaultDesign(), cfg.Resolution)
	if err != nil {
		return nil, err
	}

	// §VI-B: every (fluid, fill) pair is its own design; each point
	// takes a session of its design from the pool.
	grid := sweep.Cross(refrigerant.Candidates(), designFills)
	gcfg := cfg.SplitBudget(len(grid))
	gpool := gcfg.newPool(sys)
	defer gpool.Close()
	points, err := sweep.Run(ctx, grid, func(p sweep.Pair[*refrigerant.Fluid, float64]) (DesignPoint, error) {
		fl, fr := p.A, p.B
		d := thermosyphon.DefaultDesign()
		d.Fluid = fl
		d.FillingRatio = fr
		ses, err := gpool.Get(d)
		if err != nil {
			return DesignPoint{}, err
		}
		defer gpool.Put(ses)
		die, _, r, err := SolveMappingSession(ctx, ses, bench, m, thermosyphon.DefaultOperating())
		if err != nil {
			return DesignPoint{}, fmt.Errorf("%s fill %.2f: %w", fl.Name(), fr, err)
		}
		pt := DesignPoint{
			Fluid:        fl.Name(),
			FillingRatio: fr,
			DieMaxC:      die.MaxC,
			TCaseC:       sys.TCase(r),
			DryoutCells:  r.Syphon.DryoutCells,
		}
		pt.Feasible = pt.TCaseC < sched.TCaseMax
		return pt, nil
	}, gcfg.Workers)
	if err != nil {
		return nil, err
	}
	out.Points = points
	best := DesignPoint{DieMaxC: 1e9}
	for _, pt := range out.Points {
		if pt.Feasible && pt.DieMaxC < best.DieMaxC {
			best = pt
		}
	}
	out.Best = best

	// §VI-C: fix the best design; scan the flow × water-temperature grid
	// in cheapest-first order on one session and accept the first
	// combination that meets the constraint. Points past it are never
	// evaluated. The scan is serial, so its pool gives the whole core
	// budget to the one session's team.
	d := thermosyphon.DefaultDesign()
	fl, err := refrigerant.ByName(best.Fluid)
	if err != nil {
		return nil, err
	}
	d.Fluid = fl
	d.FillingRatio = best.FillingRatio
	spool := cfg.SplitBudget(1).newPool(sys)
	defer spool.Close()
	ses, err := spool.Get(d)
	if err != nil {
		return nil, err
	}
	for _, p := range sweep.Cross(waterFlows, waterTemps) {
		op := thermosyphon.Operating{WaterInC: p.B, WaterFlowKgH: p.A}
		_, _, r, err := SolveMappingSession(ctx, ses, bench, m, op)
		if err != nil {
			return nil, fmt.Errorf("water %g kg/h @ %g °C: %w", p.A, p.B, err)
		}
		if tc := sys.TCase(r); tc < sched.TCaseMax {
			out.WaterSelection = WaterChoice{FlowKgH: p.A, WaterInC: p.B, TCaseC: tc}
			return &out, nil
		}
	}
	return nil, fmt.Errorf("experiments: no feasible water operating point found")
}
