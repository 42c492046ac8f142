package experiments

import (
	"context"
	"fmt"

	"repro/internal/datacenter"
	"repro/internal/faults"
	"repro/internal/sweep"
	"repro/internal/thermosyphon"
)

// The failure-scenarios extension answers the question operators ask of a
// two-phase-cooled fleet: what happens when the cooling degrades? Each
// scenario injects one cooling fault (or a composition) into the
// 1000-blade fleet of the scale ladder's top rung and runs the nested
// datacenter fixed point in degraded mode: blades that cannot hold TCASE
// at full speed are throttled one DVFS step at a time, and blades with no
// feasible operating point at all are named in the report. The survival
// table summarizes each scenario's outcome: feasibility, solve effort,
// throttle depth, and the thermal/efficiency cost.

// failureFleet is the fleet every scenario solves: the scale ladder's
// 1000-blade top rung.
const (
	failureRacks   = 25
	failurePerRack = 40
	failureLoops   = 4
)

// failureSeverities is the per-resolution severity grid: coarse keeps the
// sweep CI-sized but severe enough (0.8) that the degraded-mode machinery
// — throttling, and infeasibility when even the lowest DVFS level cannot
// hold TCASE — actually engages; full resolves the survival boundary.
func failureSeverities(res Resolution) []float64 {
	switch res {
	case Coarse:
		return []float64{0.8}
	case Medium:
		return []float64{0.4, 0.8}
	default:
		return []float64{0.2, 0.4, 0.6, 0.8}
	}
}

// failureScenarios builds the scenario sweep: the healthy baseline, every
// fault kind at every grid severity, the pump+fouling composition the
// degraded-mode path is specified against, and the caller's custom
// scenario (the -fault flag) when present. Blade-level cooling loss
// targets one named blade — a single failed quick-disconnect in a healthy
// fleet.
func failureScenarios(res Resolution, custom *faults.Scenario) []faults.Scenario {
	out := []faults.Scenario{{Name: "healthy"}}
	sevs := failureSeverities(res)
	for _, k := range faults.Kinds() {
		for _, sev := range sevs {
			f := faults.Fault{Kind: k, Severity: sev}
			if k == faults.BladeCoolingLoss {
				f.Blade = "r0b0"
			}
			out = append(out, faults.Scenario{
				Name:   fmt.Sprintf("%s:%.1f", k, sev),
				Faults: []faults.Fault{f},
			})
		}
	}
	// The composition runs at 0.6, not the grid top: severe enough that
	// TCASE is violated fleet-wide, mild enough that one DVFS step rescues
	// every blade — the flagship degraded-but-survivable row. The
	// unsurvivable regime (throttling exhausted, blades named infeasible)
	// is covered by the per-kind rows at severity 0.8.
	const comp = 0.6
	out = append(out, faults.Scenario{
		Name: fmt.Sprintf("pump:%.1f+fouling:%.1f", comp, comp),
		Faults: []faults.Fault{
			{Kind: faults.PumpDegradation, Severity: comp},
			{Kind: faults.CondenserFouling, Severity: comp},
		},
	})
	if custom != nil && !custom.Empty() {
		out = append(out, *custom)
	}
	return out
}

// FailurePoint is one row of the survival table: the fleet outcome under
// one fault scenario.
type FailurePoint struct {
	Scenario string
	// Feasible: the fixed point converged and every blade found a feasible
	// operating point (throttled or not).
	Feasible  bool
	Converged bool
	// OuterIterations is the final throttle round's fixed-point length.
	OuterIterations int
	// Escalations counts solver-ladder descents across every blade solve.
	Escalations int
	// ThrottledBlades / MaxThrottleSteps: degraded-mode DVFS actuation;
	// InfeasibleBlades counts blades with no feasible point at any level.
	ThrottledBlades  int
	MaxThrottleSteps int
	InfeasibleBlades int
	ITPowerW         float64
	MaxDieC          float64
	MaxSupplyC       float64
	PUE              float64
}

// ExtFailureScenarios sweeps fault type × severity across the 1000-blade
// fleet. Scenarios fan out through the sweep pool — each worker solves
// whole fleets, so per-fleet parallelism stays inside the blade sessions
// (Threads) while Workers spans scenarios — and results come back
// input-ordered, so the survival table is byte-identical pooled vs
// serial. The blade system is shared read-only across workers, exactly as
// the datacenter solver already shares it across its pooled sessions.
func ExtFailureScenarios(ctx context.Context, cfg RunConfig) ([]FailurePoint, error) {
	return failureSweep(ctx, cfg, failureRacks, failurePerRack, failureLoops)
}

// failureSweep is ExtFailureScenarios on an arbitrary fleet — the tests
// run it on a small one.
func failureSweep(ctx context.Context, cfg RunConfig, racks, perRack, loops int) ([]FailurePoint, error) {
	sys, err := NewSystem(thermosyphon.DefaultDesign(), cfg.Resolution)
	if err != nil {
		return nil, err
	}
	scenarios := failureScenarios(cfg.Resolution, cfg.Scenario)
	rcfg := cfg.SplitBudget(len(scenarios))
	states := datacenterStates()

	return sweep.Run(ctx, scenarios,
		func(sc faults.Scenario) (FailurePoint, error) {
			topo, err := datacenter.Uniform(racks, perRack, loops, datacenterLoop(), states)
			if err != nil {
				return FailurePoint{}, err
			}
			s, err := datacenter.New(sys, topo, datacenter.Options{
				Solver:   rcfg.Solver,
				Workers:  1, // the scenario sweep owns the width
				Threads:  rcfg.Threads,
				Scenario: &sc,
			})
			if err != nil {
				return FailurePoint{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
			rep, err := s.Solve(ctx)
			s.Close()
			if err != nil {
				return FailurePoint{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
			p := FailurePoint{
				Scenario:         sc.Name,
				Feasible:         rep.Feasible(),
				Converged:        rep.Converged,
				OuterIterations:  rep.OuterIterations,
				Escalations:      rep.Escalations,
				ThrottledBlades:  rep.ThrottledBlades,
				MaxThrottleSteps: rep.MaxThrottleSteps,
				InfeasibleBlades: len(rep.Infeasible),
				ITPowerW:         rep.ITPowerW,
				MaxDieC:          rep.MaxDieC,
				PUE:              rep.Plant.PUE,
			}
			for _, l := range rep.Loops {
				if l.State.SupplyC > p.MaxSupplyC {
					p.MaxSupplyC = l.State.SupplyC
				}
			}
			return p, nil
		},
		rcfg.sweepOpts()...)
}
