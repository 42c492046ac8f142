package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// The experiments in this file extend the paper's evaluation along axes
// the text motivates but does not quantify: the interaction between the
// evaporator orientation and the mapping policy, and the closed-loop
// runtime controller's reaction to a thermal emergency.

// OrientationMappingCell is one (orientation, mapping) cell of the
// extension cross study.
type OrientationMappingCell struct {
	Orientation thermosyphon.Orientation
	Scenario    string
	Die         metrics.MapStats
}

// ExtOrientationMapping crosses the four evaporator orientations with the
// three Fig. 6 mappings under C1 idles: the paper argues the mapping rule
// ("one hot core per channel") is orientation-relative, so the staggered
// mapping's advantage should persist across orientations while the
// clustered mapping's penalty should depend on whether the cluster shares
// channels. The twelve cells run through the sweep pool on one System;
// each takes a session of its orientation's design from the session
// pool, so no orientation's workspace is built more than once per
// concurrent holder.
func ExtOrientationMapping(ctx context.Context, cfg RunConfig) ([]OrientationMappingCell, error) {
	bench, err := workload.ByName("facesim")
	if err != nil {
		return nil, err
	}
	wcfg := workload.Config{Cores: 4, Threads: 8, Freq: power.FMax}
	cells := sweep.Cross(thermosyphon.Orientations(), Fig6Scenarios())
	cfg = cfg.SplitBudget(len(cells))
	sys, err := NewSystem(thermosyphon.DefaultDesign(), cfg.Resolution)
	if err != nil {
		return nil, err
	}
	pool := cfg.newPool(sys)
	defer pool.Close()
	return sweep.Run(ctx, cells, func(p sweep.Pair[thermosyphon.Orientation, Fig6Scenario]) (OrientationMappingCell, error) {
		o, sc := p.A, p.B
		d := thermosyphon.DefaultDesign()
		d.Orientation = o
		ses, err := pool.Get(d)
		if err != nil {
			return OrientationMappingCell{}, err
		}
		defer pool.Put(ses)
		m := core.Mapping{ActiveCores: sc.Active, IdleState: power.C1, Config: wcfg}
		die, _, _, err := SolveMappingSession(ctx, ses, bench, m, thermosyphon.DefaultOperating())
		if err != nil {
			return OrientationMappingCell{}, fmt.Errorf("%v/%s: %w", o, sc.Name, err)
		}
		return OrientationMappingCell{Orientation: o, Scenario: sc.Name, Die: die}, nil
	}, cfg.Workers)
}

// RuntimeControlResult summarizes the §VII closed-loop experiment.
type RuntimeControlResult struct {
	// NominalTCase is the uncontrolled case temperature.
	NominalTCase float64
	// Limit is the synthetic emergency threshold applied.
	Limit float64
	// FinalTCase is the regulated case temperature.
	FinalTCase float64
	// FlowActions and DVFSActions count the remedies used.
	FlowActions, DVFSActions int
	// FinalFlowKgH is the valve position after regulation.
	FinalFlowKgH float64
	// QoSHeld reports whether the final configuration still meets QoS.
	QoSHeld bool
}

// ExtRuntimeControl stresses the runtime controller: the worst-case
// workload at 1x QoS with a case-temperature limit placed 2 °C below the
// nominal operating point, forcing the §VII control law to act.
func ExtRuntimeControl(ctx context.Context, cfg RunConfig) (*RuntimeControlResult, error) {
	sys, err := NewSystem(thermosyphon.DefaultDesign(), cfg.Resolution)
	if err != nil {
		return nil, err
	}
	bench, wcfg := workload.WorstCase()
	m := FullLoadMapping(wcfg, power.POLL)
	const qos = workload.QoS1x

	ctl := sched.NewController(sys)
	ctl.Solver = cfg.Solver
	nominal, err := ctl.Regulate(ctx, bench, m, qos)
	if err != nil {
		return nil, err
	}
	out := &RuntimeControlResult{NominalTCase: nominal.TCase, Limit: nominal.TCase - 2}

	ctl2 := sched.NewController(sys)
	ctl2.Solver = cfg.Solver
	ctl2.TCaseLimit = out.Limit
	regulated, err := ctl2.Regulate(ctx, bench, m, qos)
	if err != nil {
		return nil, err
	}
	out.FinalTCase = regulated.TCase
	out.FinalFlowKgH = regulated.Op.WaterFlowKgH
	for _, a := range regulated.Actions {
		switch a.Kind {
		case "flow":
			out.FlowActions++
		case "dvfs":
			out.DVFSActions++
		}
	}
	out.QoSHeld = qos.Satisfied(bench, regulated.Mapping.Config)
	return out, nil
}
