// Package sched implements the paper's runtime control loop (§VII, final
// paragraph): during execution, the water flow rate is increased only when
// a thermal emergency occurs (TCASE ≥ TCASE_MAX), and the core frequency is
// lowered only if the flow rate is exhausted and the QoS constraint still
// holds at the lower frequency.
package sched

import (
	"context"

	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// TCaseMax is the paper's thermal constraint: the maximum temperature at
// the center of the heat spreader (§VI-B).
const TCaseMax = 85.0

// Controller regulates one blade at runtime.
type Controller struct {
	Sys *cosim.System
	// Op is the current cooling operating point; Regulate may raise the
	// flow rate.
	Op thermosyphon.Operating
	// FlowStepKgH is the valve increment per emergency reaction.
	FlowStepKgH float64
	// FlowMaxKgH is the valve's maximum flow.
	FlowMaxKgH float64
	// TCaseLimit is the emergency threshold (defaults to TCaseMax).
	TCaseLimit float64
	// Solver selects the thermal linear solver for the control loop's
	// session (zero value: Jacobi-CG; thermal.SolverMGPCG pays off on
	// fine grids).
	Solver thermal.Solver
}

// NewController returns a controller at the paper's design operating point
// with a 1 kg/h valve step up to 20 kg/h.
func NewController(sys *cosim.System) *Controller {
	return &Controller{
		Sys:         sys,
		Op:          thermosyphon.DefaultOperating(),
		FlowStepKgH: 1,
		FlowMaxKgH:  20,
		TCaseLimit:  TCaseMax,
	}
}

// Action describes one regulation step taken by the controller.
type Action struct {
	Kind string // "flow" or "dvfs"
	// FlowKgH is the flow after a "flow" action.
	FlowKgH float64
	// Freq is the frequency after a "dvfs" action.
	Freq power.Frequency
}

// Outcome reports the converged regulation result.
type Outcome struct {
	Result  *cosim.Result
	Op      thermosyphon.Operating
	Mapping core.Mapping
	TCase   float64
	Actions []Action
	// Emergency is true if the limit could not be met even after all
	// actions (the workload must then be migrated off the blade).
	Emergency bool
}

// Regulate runs the control loop for one application mapped by Algorithm 1
// under QoS q: solve the coupled steady state, and while TCASE exceeds the
// limit, first open the valve, then drop frequency while QoS allows.
// Cancelling ctx aborts the loop inside the current solve; a nil ctx means
// "not cancellable".
func (c *Controller) Regulate(ctx context.Context, b workload.Benchmark, m core.Mapping, q workload.QoS) (*Outcome, error) {
	if c.TCaseLimit <= 0 {
		c.TCaseLimit = TCaseMax
	}
	op := c.Op
	mapping := m
	out := &Outcome{Op: op, Mapping: mapping}

	// One warm-started session for the whole control loop: consecutive
	// valve/DVFS probes differ by one actuator step, so each re-solve
	// starts from the previous converged field and costs a few refinement
	// iterations instead of a cold solve.
	ses := c.Sys.NewSession(cosim.WithSolver(c.Solver))
	solve := func() error {
		st := core.PackageState(b, mapping)
		res, err := ses.SolveSteady(ctx, st, op)
		if err != nil {
			return err
		}
		// Copy the result header so the returned Outcome does not pin the
		// session (and its solver workspace) via an interior pointer.
		cp := *res
		out.Result = &cp
		out.TCase = c.Sys.TCase(res)
		out.Op = op
		out.Mapping = mapping
		return nil
	}
	if err := solve(); err != nil {
		return nil, err
	}

	for out.TCase >= c.TCaseLimit {
		// First remedy: open the valve (§VII: "we increase water flow
		// rate only if a thermal emergency occurs").
		if op.WaterFlowKgH+c.FlowStepKgH <= c.FlowMaxKgH {
			op.WaterFlowKgH += c.FlowStepKgH
			out.Actions = append(out.Actions, Action{Kind: "flow", FlowKgH: op.WaterFlowKgH})
			if err := solve(); err != nil {
				return nil, err
			}
			continue
		}
		// Valve exhausted: lower the frequency if QoS still holds.
		lower, ok := lowerFreq(mapping.Config.Freq)
		if !ok {
			out.Emergency = true
			break
		}
		cand := mapping.Config
		cand.Freq = lower
		if !q.Satisfied(b, cand) {
			out.Emergency = true
			break
		}
		mapping.Config = cand
		out.Actions = append(out.Actions, Action{Kind: "dvfs", Freq: lower})
		if err := solve(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func lowerFreq(f power.Frequency) (power.Frequency, bool) {
	levels := power.Levels()
	for i := 1; i < len(levels); i++ {
		if levels[i] == f {
			return levels[i-1], true
		}
	}
	return f, false
}

// ThrottleStep lowers a package state by one DVFS level, rescaling every
// active core's dynamic power by the paper's frequency-power law
// (power.DynScale). ok is false when the state is already at the lowest
// level — the blade cannot be throttled further and must be treated as
// infeasible. This is the degraded-mode actuator the datacenter solver
// applies to blades whose cooling loop cannot hold TCASE at full speed.
func ThrottleStep(st power.PackageState) (out power.PackageState, ok bool) {
	lower, ok := lowerFreq(st.Freq)
	if !ok {
		return st, false
	}
	scale := power.DynScale(lower) / power.DynScale(st.Freq)
	out = st
	out.Freq = lower
	for i := range out.Cores {
		if out.Cores[i].Active {
			out.Cores[i].DynWatts *= scale
		}
	}
	return out, true
}
