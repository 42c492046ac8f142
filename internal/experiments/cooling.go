package experiments

import (
	"context"
	"fmt"

	"repro/internal/chiller"
	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/linalg"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// CoolingResult reproduces §VIII-B: the water temperature the baseline
// needs to match the proposed approach's hot spot at the same flow, the
// water-side ΔT of both, and the resulting Eq. (1) and chiller powers.
type CoolingResult struct {
	// HotspotC is the die hot spot both configurations are held to.
	HotspotC float64
	// Proposed and Baseline operating points and budgets.
	ProposedWaterC, BaselineWaterC float64
	ProposedDeltaT, BaselineDeltaT float64
	ProposedBudget, BaselineBudget chiller.Budget
	// ReductionEq1 is 1 − P_prop/P_base under Eq. (1).
	ReductionEq1 float64
	// ReductionChiller is the same for the electrical chiller model.
	ReductionChiller float64
}

// CoolingPowerStudy runs the §VIII-B experiment at 2x QoS with the paper's
// 7 kg/h water flow and 35 °C data-center ambient: solve the proposed stack
// at 30 °C water, then find the water temperature at which the baseline
// stack ([8]+[27]+[9]) reaches the same die hot spot, and compare cooling
// powers via Eq. (1) and the chiller COP model. The two stacks solve on
// one System, each on a warm-started session of its own design: the
// bisection probes differ only in water temperature, so every probe
// after the first starts from the previous converged field and costs a
// few refinement iterations instead of a cold solve. The probe sequence
// is serial and fixed, so the warm starts are deterministic.
func CoolingPowerStudy(ctx context.Context, cfg RunConfig) (*CoolingResult, error) {
	const (
		qos      = workload.QoS2x
		flowKgH  = 7.0
		ambientC = 35.0
	)
	bench, err := workload.ByName("freqmine")
	if err != nil {
		return nil, err
	}

	// The solves run one session at a time, so the whole core budget
	// belongs to each solve's worker team. The sessions carry their warm
	// starts: they come from a pool without CarryWarmStart(false), and
	// neither is returned to it.
	cfg = cfg.SplitBudget(1)
	sys, err := NewSystem(Proposed.Design(), cfg.Resolution)
	if err != nil {
		return nil, err
	}
	type setup struct {
		a   Approach
		m   core.Mapping
		ses *cosim.Session
	}
	pool := sys.NewPool(cfg.sessionOptions()...)
	defer pool.Close()
	prop, base := &setup{a: Proposed}, &setup{a: SoACoskun}
	for _, s := range []*setup{prop, base} {
		if s.m, err = s.a.Plan(bench, qos); err != nil {
			return nil, err
		}
		if s.ses, err = pool.Get(s.a.Design()); err != nil {
			return nil, err
		}
	}

	solveAt := func(s *setup, waterC float64) (dieMax float64, waterOut float64, err error) {
		op := thermosyphon.Operating{WaterInC: waterC, WaterFlowKgH: flowKgH}
		die, _, r, err := SolveMappingSession(ctx, s.ses, bench, s.m, op)
		if err != nil {
			return 0, 0, err
		}
		return die.MaxC, r.Syphon.Condenser.WaterOutC, nil
	}

	out := &CoolingResult{ProposedWaterC: 30}
	propMax, propOut, err := solveAt(prop, 30)
	if err != nil {
		return nil, err
	}
	out.HotspotC = propMax
	out.ProposedDeltaT = propOut - 30

	// Find the baseline water temperature that matches the hot spot.
	var baseOut float64
	target := func(waterC float64) float64 {
		dieMax, wOut, err2 := solveAt(base, waterC)
		if err2 != nil {
			err = err2
			return 0
		}
		baseOut = wOut
		return dieMax - propMax
	}
	waterC, _ := linalg.Bisect(target, 5, 30, 0.25, 30)
	if err != nil {
		return nil, err
	}
	// Evaluate the final baseline point: Bisect returns the interval
	// midpoint without evaluating there, so this solve is what makes
	// baseOut correspond to the returned waterC.
	if _, wOut, err := solveAt(base, waterC); err != nil {
		return nil, err
	} else {
		baseOut = wOut
	}
	out.BaselineWaterC = waterC
	out.BaselineDeltaT = baseOut - waterC

	if out.BaselineWaterC >= out.ProposedWaterC {
		return nil, fmt.Errorf("experiments: baseline did not need colder water (%.1f vs %.1f)",
			out.BaselineWaterC, out.ProposedWaterC)
	}

	pb, err := chiller.Assess(flowKgH, out.ProposedWaterC, out.ProposedWaterC+out.ProposedDeltaT, ambientC)
	if err != nil {
		return nil, err
	}
	bb, err := chiller.Assess(flowKgH, out.BaselineWaterC, out.BaselineWaterC+out.BaselineDeltaT, ambientC)
	if err != nil {
		return nil, err
	}
	out.ProposedBudget, out.BaselineBudget = pb, bb
	out.ReductionEq1 = 1 - pb.Eq1PowerW/bb.Eq1PowerW
	out.ReductionChiller = 1 - pb.ChillerPowerW/bb.ChillerPowerW
	return out, nil
}
