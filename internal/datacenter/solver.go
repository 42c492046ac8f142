package datacenter

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/chiller"
	"repro/internal/cosim"
	"repro/internal/faults"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// Options tunes the nested solve. The zero value is valid: CG solver,
// auto worker pool, serial solves, no leakage feedback, no faults,
// throttling enabled at the paper's TCASE limit.
type Options struct {
	// Solver selects the thermal linear solver of every blade session.
	Solver thermal.Solver
	// Workers bounds the sweep pool fanning out the per-class blade
	// solves (0 = GOMAXPROCS, 1 = serial). The pool never changes
	// results; see the package comment's determinism contract.
	Workers int
	// Threads is the intra-solve team width of every blade session
	// (0 or 1 = serial). Callers compose Workers × Threads under one core
	// budget (experiments.RunConfig does the split).
	Threads int
	// Leakage scales each blade's static power with its die temperature,
	// closing the power↔temperature loop that makes the outer fixed point
	// more than a single feed-forward pass. The zero model (BetaPerC 0)
	// disables the feedback.
	Leakage power.LeakageModel
	// Damping is the outer update factor α in T ← T + α·(T' − T).
	// 0 selects the default 0.8; the loop gain (plant approach ×
	// leakage sensitivity) is well below 1 for physical parameters, so
	// mild damping is a robustness margin, not a convergence crutch.
	// Under cooling faults the gain rises (hotter dies leak more, fouled
	// condensers amplify the supply response); when the residual stalls
	// or oscillates the solver halves the damping on its own, up to
	// maxDampingHalvings times, and reports the halvings it took.
	Damping float64
	// TolC is the convergence tolerance on the largest undamped per-loop
	// supply-temperature update (°C). 0 selects the default 0.01.
	TolC float64
	// MaxOuter bounds the outer iterations. 0 selects the default 40.
	MaxOuter int
	// Progress, when non-nil, is called after every outer iteration with
	// the iteration number (1-based) and the undamped residual (°C).
	Progress func(outer int, maxDeltaC float64)

	// Scenario injects cooling faults into the fleet before solving:
	// loop-level faults derate the shared water loops, design-level
	// faults derate each affected blade's thermosyphon. nil or empty =
	// healthy fleet. The scenario is applied declaratively at New time,
	// so faulted fleets keep the pooled-vs-serial byte-determinism
	// contract unchanged.
	Scenario *faults.Scenario
	// TCaseLimitC is the degraded-mode thermal constraint: blade classes
	// whose TCASE exceeds it (or whose coupled solve fails, e.g. in
	// leakage runaway) are throttled one DVFS step at a time until they
	// comply. 0 selects sched.TCaseMax.
	TCaseLimitC float64
	// MaxThrottleSteps bounds the DVFS steps the degraded mode may apply
	// per blade class. 0 selects every available level below nominal;
	// negative disables throttling entirely (infeasible blades are then
	// reported as such immediately).
	MaxThrottleSteps int
}

func (o Options) withDefaults() Options {
	if o.Damping == 0 {
		o.Damping = 0.8
	}
	if o.TolC == 0 {
		o.TolC = 0.01
	}
	if o.MaxOuter == 0 {
		o.MaxOuter = 40
	}
	if o.TCaseLimitC == 0 {
		o.TCaseLimitC = sched.TCaseMax
	}
	if o.MaxThrottleSteps == 0 {
		o.MaxThrottleSteps = len(power.Levels()) - 1
	}
	return o
}

// Stall-adaptation policy of the outer fixed point: after stallWindow
// consecutive iterations without the residual improving past
// stallImprove × best-so-far, the damping is halved (at most
// maxDampingHalvings times, never below minDamping).
const (
	stallWindow        = 5
	stallImprove       = 0.98
	maxDampingHalvings = 3
	minDamping         = 0.05
)

// class is one equivalence class of blades: same package state, same
// loop, same (possibly fault-derated) thermosyphon design and flow share —
// therefore byte-identical solves. It owns the warm-started solve session
// that represents every blade in the class.
type class struct {
	loop  int
	st    power.PackageState
	count int
	ses   *cosim.Session
	// design is the blade's (scenario-derated) thermosyphon design;
	// flowScale its residual share of the loop's per-blade water flow.
	design    thermosyphon.Design
	flowScale float64
	// lastWaterC is the supply temperature of the class's previous solve,
	// the reference for the warm-start re-seat.
	lastWaterC float64
}

// classKey identifies a class: blades are interchangeable exactly when
// they run the same package state on the same loop with the same faulted
// cooling (design + flow share).
type classKey struct {
	loop      int
	st        power.PackageState
	design    thermosyphon.Design
	flowScale float64
}

// Solver runs the nested datacenter solve for one topology. It keeps
// per-class sessions (and the converged loop temperatures) across Solve
// calls, so a series of solves — the hours of a diurnal sweep, a
// what-if re-plan — warm-starts from the previous converged fleet state.
// A Solver is not safe for concurrent use; Close releases the sessions.
type Solver struct {
	topo Topology
	sys  *cosim.System
	opt  Options

	// loops are the effective (scenario-derated) shared loops, index-
	// aligned with topo.Loops.
	loops []rack.SharedLoop

	classes    []*class
	bladeClass []int // flat (rack-major) blade index → class index

	temps []float64 // per-loop supply temperatures (carried across Solve calls)
}

// New builds a solver for the topology on the given blade system. All
// blades share the system (one floorplan, stack and nominal thermosyphon
// design); each blade class gets its own solve session, so class solves
// are independent and safely fan out across goroutines. A fault scenario
// in Options is applied here: derated loops and per-blade derated designs
// feed the class partition, so faulted blades simply form their own
// classes. The system must carry the Xeon power model (leakage folding
// needs the static/dynamic split).
func New(sys *cosim.System, topo Topology, opt Options) (*Solver, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if sys.Power == nil {
		return nil, fmt.Errorf("datacenter: system has no power model")
	}
	s := &Solver{topo: topo, sys: sys, opt: opt.withDefaults()}
	sc := s.opt.Scenario
	if sc != nil {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
	}

	s.loops = make([]rack.SharedLoop, len(topo.Loops))
	for i, l := range topo.Loops {
		eff := l.SharedLoop
		if sc != nil {
			eff = sc.ApplyLoop(eff, l.Name)
		}
		if eff.PerBladeFlowKgH <= 0 {
			return nil, fmt.Errorf("datacenter: loop %d (%s): fault scenario leaves no water flow", i, l.Name)
		}
		s.loops[i] = eff
	}

	byKey := make(map[classKey]int)
	for _, r := range topo.Racks {
		loopName := topo.Loops[r.Loop].Name
		for _, b := range r.Blades {
			design := sys.Design
			flowScale := 1.0
			if sc != nil {
				design = sc.ApplyDesign(design, loopName, b.Name)
				flowScale = sc.FlowScale(loopName, b.Name)
			}
			if err := design.Validate(); err != nil {
				return nil, fmt.Errorf("datacenter: blade %s: faulted design invalid: %w", b.Name, err)
			}
			if flowScale <= 0 {
				return nil, fmt.Errorf("datacenter: blade %s: fault scenario leaves no water flow", b.Name)
			}
			key := classKey{loop: r.Loop, st: b.State, design: design, flowScale: flowScale}
			ci, ok := byKey[key]
			if !ok {
				ci = len(s.classes)
				byKey[key] = ci
				s.classes = append(s.classes, &class{
					loop: r.Loop, st: b.State, design: design, flowScale: flowScale,
				})
			}
			s.classes[ci].count++
			s.bladeClass = append(s.bladeClass, ci)
		}
	}
	for _, c := range s.classes {
		opts := []cosim.SessionOption{cosim.WithSolver(s.opt.Solver)}
		if c.design != sys.Design {
			opts = append(opts, cosim.WithDesign(c.design))
		}
		if s.opt.Threads > 1 {
			opts = append(opts, cosim.WithThreads(s.opt.Threads))
		}
		c.ses = sys.NewSession(opts...)
	}
	s.temps = make([]float64, len(topo.Loops))
	for i := range s.loops {
		s.temps[i] = s.loops[i].SupplyC(0)
		// Seed the re-seat reference so the first iteration's delta is zero.
		for _, c := range s.classes {
			if c.loop == i {
				c.lastWaterC = s.temps[i]
			}
		}
	}
	return s, nil
}

// Classes returns the number of distinct blade classes the solver solves
// per outer iteration.
func (s *Solver) Classes() int { return len(s.classes) }

// Close releases every class session's worker team.
func (s *Solver) Close() error {
	for _, c := range s.classes {
		c.ses.Close()
	}
	return nil
}

// classResult is what one class solve contributes to the outer update.
type classResult struct {
	heatW   float64
	dieMaxC float64
	tcaseC  float64
	// failed carries the class's solve-infeasibility diagnostic ("" =
	// solved). A failed class aborts the current fixed point and feeds
	// the throttle layer instead of killing the whole fleet solve.
	failed string
}

// fixedPointState is the outcome of one damped outer fixed point run.
type fixedPointState struct {
	results   []classResult
	outer     int
	converged bool
	residual  float64
	damping   float64
	halvings  int
	failed    bool // some class was infeasible at these operating points
}

// escalationCount sums the solver-ladder descents across every class
// session.
func (s *Solver) escalationCount() int {
	var n int
	for _, c := range s.classes {
		n += c.ses.SolverStats().Escalations
	}
	return n
}

// Solve runs the nested fixed point at nominal load.
func (s *Solver) Solve(ctx context.Context) (*Report, error) { return s.SolveScaled(ctx, 1) }

// SolveScaled runs the nested fixed point with every blade's per-core
// dynamic power scaled by dynScale — the fleet-wide load knob the diurnal
// sweep drives from a workload trace. Scaling is applied to the class
// states on entry; class identity (and with it the warm-start carry) is
// stable across scales.
//
// Degraded mode: classes whose coupled solve is infeasible, or whose
// TCASE exceeds Options.TCaseLimitC, are throttled one DVFS step
// (sched.ThrottleStep) and the fixed point re-runs, until the fleet
// is feasible or the throttle budget is exhausted — classes still failing
// then land in Report.Infeasible with their loop and blade names, and the
// report carries whatever the rest of the fleet converged to. TCASE is
// read at the fixed point's last iterate even when it did not converge:
// a fleet drifting into leakage runaway never meets the outer tolerance,
// and throttling its over-limit classes is what lets the re-run settle.
// Cancelling ctx aborts between outer iterations and between (and
// inside) the fanned-out blade solves, returning ctx.Err() promptly.
func (s *Solver) SolveScaled(ctx context.Context, dynScale float64) (*Report, error) {
	if dynScale < 0 {
		return nil, fmt.Errorf("datacenter: negative load scale %g", dynScale)
	}
	opt := s.opt
	baseEsc := s.escalationCount()
	steps := make([]int, len(s.classes))      // DVFS steps applied per class
	reasons := make([]string, len(s.classes)) // permanent-infeasibility diagnostics

	var fp fixedPointState
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		states := make([]power.PackageState, len(s.classes))
		for i, c := range s.classes {
			states[i] = scaleState(throttledState(c.st, steps[i]), dynScale)
		}
		var err error
		fp, err = s.runFixedPoint(ctx, states)
		if err != nil {
			return nil, err
		}

		// Degraded mode: throttle every class that failed or violates the
		// thermal constraint; classes with no DVFS headroom left become
		// permanently infeasible for this solve.
		throttled := false
		for ci, r := range fp.results {
			var why string
			switch {
			case r.failed != "":
				why = r.failed
			case r.tcaseC > opt.TCaseLimitC:
				why = fmt.Sprintf("TCASE %.1f °C over the %.1f °C limit", r.tcaseC, opt.TCaseLimitC)
			default:
				reasons[ci] = ""
				continue
			}
			cur := throttledState(s.classes[ci].st, steps[ci])
			if _, ok := sched.ThrottleStep(cur); ok && opt.MaxThrottleSteps > 0 && steps[ci] < opt.MaxThrottleSteps {
				steps[ci]++
				throttled = true
				reasons[ci] = ""
				continue
			}
			if steps[ci] > 0 {
				why += fmt.Sprintf(" after %d DVFS step(s)", steps[ci])
			}
			reasons[ci] = why
		}
		if !throttled {
			break
		}
	}
	return s.report(fp, steps, reasons, s.escalationCount()-baseEsc)
}

// runFixedPoint runs the damped outer fixed point over the loop supply
// temperatures at the given per-class states, adapting the damping when
// the residual stalls. A class whose coupled solve fails aborts the fixed
// point (result.failed set) so the caller can throttle and retry; ctx
// cancellation aborts with ctx.Err().
func (s *Solver) runFixedPoint(ctx context.Context, states []power.PackageState) (fixedPointState, error) {
	opt := s.opt
	idx := make([]int, len(s.classes))
	for i := range idx {
		idx[i] = i
	}
	fp := fixedPointState{
		damping:  opt.Damping,
		residual: math.Inf(1),
	}
	loopHeat := make([]float64, len(s.loops))
	best := math.Inf(1)
	stall := 0

	var outer int
	for outer = 1; outer <= opt.MaxOuter; outer++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fp, err
			}
		}
		// Inner level: one coupled (thermal ↔ thermosyphon ↔ leakage)
		// solve per blade class at the current loop temperatures, fanned
		// out across the worker pool. Results come back input-ordered.
		// Infeasibility is data, not an error: a class that cannot be
		// solved reports failed and the fleet solve degrades instead of
		// dying.
		res, err := sweep.RunState(ctx, idx,
			func() (struct{}, error) { return struct{}{}, nil },
			func(_ struct{}, ci int) (classResult, error) {
				c := s.classes[ci]
				waterC := s.temps[c.loop]
				op := thermosyphon.Operating{
					WaterInC:     waterC,
					WaterFlowKgH: s.loops[c.loop].PerBladeFlowKgH * c.flowScale,
				}
				c.ses.ReseatWater(waterC - c.lastWaterC)
				c.lastWaterC = waterC
				r, err := c.ses.SolveSteadyLeakage(ctx, states[ci], op, opt.Leakage)
				if err != nil {
					if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
						return classResult{}, err
					}
					return classResult{failed: err.Error()}, nil
				}
				die, err := s.sys.DieStats(r)
				if err != nil {
					return classResult{}, err
				}
				return classResult{
					heatW:   r.TotalPowerW,
					dieMaxC: die.MaxC,
					tcaseC:  s.sys.TCase(r),
				}, nil
			},
			sweep.Workers(opt.Workers))
		if err != nil {
			return fp, err
		}
		fp.results = res
		fp.outer = outer
		for _, r := range res {
			if r.failed != "" {
				fp.failed = true
			}
		}
		if fp.failed {
			// No meaningful loop update exists at an infeasible operating
			// point; hand the failures to the throttle layer.
			fp.converged = false
			return fp, nil
		}

		// Outer level: re-derive each loop's supply temperature from the
		// heat its blades reject. Heats accumulate in class order, so the
		// reduction is schedule-independent.
		for l := range loopHeat {
			loopHeat[l] = 0
		}
		for ci, r := range res {
			loopHeat[s.classes[ci].loop] += float64(s.classes[ci].count) * r.heatW
		}
		fp.residual = 0
		for l := range s.loops {
			d := math.Abs(s.loops[l].SupplyC(loopHeat[l]) - s.temps[l])
			if d > fp.residual {
				fp.residual = d
			}
		}
		if opt.Progress != nil {
			opt.Progress(outer, fp.residual)
		}
		if fp.residual < opt.TolC {
			fp.converged = true
			return fp, nil
		}
		// Stall adaptation: when the residual stops improving (stall or
		// oscillation — an overdamped loop gain shows up the same way),
		// halve the damping and keep iterating with the remaining budget.
		if fp.residual < best*stallImprove {
			best = fp.residual
			stall = 0
		} else if stall++; stall >= stallWindow && fp.halvings < maxDampingHalvings && fp.damping > minDamping {
			fp.damping = math.Max(fp.damping/2, minDamping)
			fp.halvings++
			stall = 0
		}
		for l := range s.loops {
			s.temps[l] += fp.damping * (s.loops[l].SupplyC(loopHeat[l]) - s.temps[l])
		}
	}
	fp.outer = opt.MaxOuter
	return fp, nil
}

// throttledState applies n DVFS throttle steps to a nominal state.
func throttledState(st power.PackageState, n int) power.PackageState {
	for i := 0; i < n; i++ {
		st, _ = sched.ThrottleStep(st)
	}
	return st
}

// report assembles the converged fleet state into a Report.
func (s *Solver) report(fp fixedPointState, steps []int, reasons []string, escalations int) (*Report, error) {
	rep := &Report{
		OuterIterations: fp.outer,
		Converged:       fp.converged,
		ResidualC:       fp.residual,
		Classes:         len(s.classes),
		BladeSolves:     fp.outer * len(s.classes),
		DampingHalvings: fp.halvings,
		FinalDamping:    fp.damping,
		Escalations:     escalations,
	}
	if s.opt.Scenario != nil {
		rep.Scenario = s.opt.Scenario.Name
	}
	// Per-blade rows in flat (rack-major) order, expanded from the class
	// results; per-loop heats re-accumulated in the same order so the
	// report is independent of the class partition.
	loopHeats := make([][]float64, len(s.topo.Loops))
	flat := 0
	for ri, r := range s.topo.Racks {
		for bi, b := range r.Blades {
			ci := s.bladeClass[flat]
			cr := fp.results[ci]
			br := BladeReport{
				Rack: ri, Slot: bi, Name: b.Name,
				HeatW: cr.heatW, DieMaxC: cr.dieMaxC, TCaseC: cr.tcaseC,
				ThrottleSteps: steps[ci],
				Infeasible:    reasons[ci] != "",
			}
			rep.Blades = append(rep.Blades, br)
			if steps[ci] > 0 {
				rep.ThrottledBlades++
				if steps[ci] > rep.MaxThrottleSteps {
					rep.MaxThrottleSteps = steps[ci]
				}
			}
			if br.Infeasible {
				rep.Infeasible = append(rep.Infeasible, InfeasibleBlade{
					Loop: s.topo.Loops[r.Loop].Name, Rack: ri, Slot: bi,
					Name: b.Name, Reason: reasons[ci],
				})
			}
			rep.ITPowerW += cr.heatW
			if cr.dieMaxC > rep.MaxDieC {
				rep.MaxDieC = cr.dieMaxC
			}
			loopHeats[r.Loop] = append(loopHeats[r.Loop], cr.heatW)
			flat++
		}
	}
	loads := make([]chiller.LoopLoad, 0, len(s.topo.Loops))
	for l := range s.loops {
		lp := s.loops[l]
		name := s.topo.Loops[l].Name
		st, err := lp.Boundary(loopHeats[l])
		if err != nil {
			return nil, fmt.Errorf("datacenter: loop %d (%s): %w", l, name, err)
		}
		rep.Loops = append(rep.Loops, LoopReport{
			Name: name, Blades: len(loopHeats[l]), State: st,
		})
		loads = append(loads, chiller.LoopLoad{
			Name: name, FlowKgH: st.FlowKgH,
			SupplyC: st.SupplyC, ReturnC: st.ReturnC, AmbientC: lp.AmbientC,
		})
	}
	plant, err := chiller.PlantAssess(rep.ITPowerW, loads)
	if err != nil {
		return nil, err
	}
	rep.Plant = plant
	return rep, nil
}

// scaleState scales the dynamic (workload) share of a package state;
// static and idle shares are load-independent.
func scaleState(st power.PackageState, dynScale float64) power.PackageState {
	for i := range st.Cores {
		if st.Cores[i].Active {
			st.Cores[i].DynWatts *= dynScale
		}
	}
	return st
}

// BladeReport is one blade's converged operating point.
type BladeReport struct {
	Rack, Slot int
	Name       string
	// HeatW is the blade's total package power (leakage included) — the
	// heat it rejects into its loop.
	HeatW   float64
	DieMaxC float64
	TCaseC  float64
	// ThrottleSteps is how many DVFS levels the degraded mode stepped
	// this blade down to reach a feasible operating point (0 = full
	// speed).
	ThrottleSteps int
	// Infeasible marks a blade that could not be brought to a feasible
	// operating point even at the lowest DVFS level; its row carries the
	// zero operating point and Report.Infeasible names the reason.
	Infeasible bool
}

// InfeasibleBlade names one blade the degraded mode could not save, and
// why — the structured alternative to a bare Converged:false.
type InfeasibleBlade struct {
	Loop       string
	Rack, Slot int
	Name       string
	Reason     string
}

// LoopReport is one loop's converged water state.
type LoopReport struct {
	Name   string
	Blades int
	// State holds the load-derived supply/return temperatures, flow and
	// heat (consistent with the fixed point's final temperatures to
	// within Options.TolC).
	State rack.LoopState
}

// Report is the converged fleet steady state.
type Report struct {
	Blades []BladeReport
	Loops  []LoopReport
	// Plant prices the chiller plant serving the loops, including the
	// facility PUE.
	Plant chiller.PlantReport
	// ITPowerW is the total blade heat (the facility IT load).
	ITPowerW float64
	// MaxDieC is the hottest die in the fleet.
	MaxDieC float64
	// OuterIterations is the number of outer fixed-point iterations the
	// final throttle round ran.
	OuterIterations int
	// Converged reports whether the residual fell below Options.TolC
	// within Options.MaxOuter iterations.
	Converged bool
	// ResidualC is the final undamped residual (°C).
	ResidualC float64
	// Classes is the number of distinct blade classes; BladeSolves the
	// total coupled solves of the final round (Classes × OuterIterations).
	Classes     int
	BladeSolves int

	// Scenario names the fault scenario the fleet was solved under ("" =
	// healthy).
	Scenario string
	// DampingHalvings counts the stall-adaptation descents of the final
	// round's fixed point; FinalDamping is the damping it ended on.
	DampingHalvings int
	FinalDamping    float64
	// Escalations counts solver-ladder descents across every blade solve
	// of this call (surfaced, never hidden).
	Escalations int
	// ThrottledBlades counts blades the degraded mode stepped down;
	// MaxThrottleSteps is the deepest step taken.
	ThrottledBlades  int
	MaxThrottleSteps int
	// Infeasible names the blades that have no feasible operating point
	// even fully throttled. Empty on a healthy feasible fleet.
	Infeasible []InfeasibleBlade
}

// Feasible reports a converged fleet with every blade at a feasible
// operating point.
func (r *Report) Feasible() bool { return r.Converged && len(r.Infeasible) == 0 }
