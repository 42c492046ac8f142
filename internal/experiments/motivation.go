package experiments

import (
	"context"

	"repro/internal/baselines"
	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// Fig2Result reproduces Fig. 2 / table 2d: the die vs package thermal
// profile when the thermosyphon design and the workload mapping are both
// non-optimized. The paper reports die 66.1/55.9 °C with ∇θmax 6.6 °C/mm
// against package 46.4/42.9 °C with 0.5 °C/mm.
type Fig2Result struct {
	Die, Pkg metrics.MapStats
	// DieMap and PkgMap are the raw layer maps for rendering.
	DieMap, PkgMap []float64
	Grid           floorplan.Grid
	TotalPowerW    float64
}

// Fig2DieVsPackage runs the motivational experiment: worst-case workload on
// all eight cores through the non-optimized ([8]) design with a naive
// mapping, comparing die-level and package-level thermal profiles.
func Fig2DieVsPackage(ctx context.Context, cfg RunConfig) (*Fig2Result, error) {
	// A single coupled solve: the whole core budget goes to the solve team.
	cfg = cfg.SplitBudget(1)
	sys, err := NewSystem(baselines.SeuretDesign(), cfg.Resolution)
	if err != nil {
		return nil, err
	}
	pool := cfg.newPool(sys)
	defer pool.Close()
	ses, err := pool.Get(sys.Design)
	if err != nil {
		return nil, err
	}
	bench, wcfg := workload.WorstCase()
	m := FullLoadMapping(wcfg, power.POLL)
	die, pkg, r, err := SolveMappingSession(ctx, ses, bench, m, thermosyphon.DefaultOperating())
	if err != nil {
		return nil, err
	}
	dieMap := append([]float64(nil), sys.DieTemps(r)...)
	pkgMap, err := r.Field.LayerByName("spreader")
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		Die:         die,
		Pkg:         pkg,
		DieMap:      dieMap,
		PkgMap:      append([]float64(nil), pkgMap...),
		Grid:        sys.Thermal.Grid(),
		TotalPowerW: r.TotalPowerW,
	}, nil
}

// Fig3Row is one benchmark's series in Fig. 3: execution time normalized
// to the 2x QoS limit for the five plotted configurations at fmax.
type Fig3Row struct {
	Bench string
	// NormToQoS holds T/(QoS·T_ref) per configuration, in the order of
	// workload.Fig3Configs(). Values above 1 violate the 2x QoS.
	NormToQoS []float64
}

// Fig3NormalizedExecTime regenerates Fig. 3 (QoS limit 2x). It is a pure
// model evaluation — no thermal solves — so it takes no context or
// configuration.
func Fig3NormalizedExecTime() []Fig3Row {
	const qos = workload.QoS2x
	cfgs := workload.Fig3Configs()
	var rows []Fig3Row
	for _, b := range workload.All() {
		row := Fig3Row{Bench: b.Name}
		for _, c := range cfgs {
			row.NormToQoS = append(row.NormToQoS, b.NormalizedTime(c)/float64(qos))
		}
		rows = append(rows, row)
	}
	return rows
}

// TableIRow is one C-state row of Table I.
type TableIRow struct {
	State   power.CState
	Latency string
	// PowerW holds total 8-core power at 2.6, 2.9 and 3.2 GHz.
	PowerW [3]float64
}

// TableICStatePower regenerates Table I from the power model.
func TableICStatePower() []TableIRow {
	var rows []TableIRow
	for _, s := range []power.CState{power.POLL, power.C1, power.C1E} {
		r := TableIRow{State: s, Latency: s.Latency().String()}
		for i, f := range power.Levels() {
			r.PowerW[i] = power.CStateTotalPower(s, f)
		}
		rows = append(rows, r)
	}
	return rows
}
