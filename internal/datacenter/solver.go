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

// Options selects how the nested solve runs and what it solves. The zero
// value is valid: CG solver, auto worker pool, serial solves, no faults.
// Every blade's static power follows power.DefaultLeakage, and degraded
// mode throttles blades to the paper's TCASE limit (sched.TCaseMax).
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
	// Scenario injects cooling faults into the fleet before solving:
	// loop-level faults derate the shared water loops, design-level
	// faults derate each affected blade's thermosyphon. nil or empty =
	// healthy fleet. The scenario is applied declaratively at New time,
	// so faulted fleets keep the pooled-vs-serial byte-determinism
	// contract unchanged.
	Scenario *faults.Scenario
}

// The outer fixed point over the loop supply temperatures.
const (
	// tolC is the convergence tolerance on the largest undamped per-loop
	// supply-temperature update (°C).
	tolC = 0.01
	// maxOuter bounds the outer iterations of one throttle round.
	maxOuter = 40
	// damping is the outer update factor α in T ← T + α·(F(T) − T).
	// Loops share no blades, so each loop's update is a scalar map, and
	// its gain g = dF/dT is non-negative: hotter water makes hotter dies,
	// and hotter dies leak more heat. The error therefore shrinks by
	// 1 − α(1 − g) per iteration. For g < 1 that factor only grows as α
	// shrinks; for g ≥ 1 it is at least 1 for every α > 0. A smaller α
	// never rescues a stalled loop, so α is a constant, not an adaptation.
	damping = 0.8
)

// class is one equivalence class of blades: same package state, same
// loop, same (possibly fault-derated) thermosyphon design and flow share —
// therefore byte-identical solves. It owns no session: carry is its warm
// start (the converged field and flux of its previous solve), which each
// solve swaps into a pooled session of the class's design and back out.
type class struct {
	loop  int
	st    power.PackageState
	count int
	carry cosim.Carry
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
// each class's warm start (and the converged loop temperatures) across
// Solve calls, so a series of solves — the hours of a diurnal sweep, a
// what-if re-plan — warm-starts from the previous converged fleet state.
// The classes share one cosim.Pool of solve sessions: a session is taken
// for one class solve and returned after it, so at most Workers sessions
// per distinct thermosyphon design are ever built, however many classes
// the fleet has. A Solver is not safe for concurrent use; Close releases
// the pooled sessions.
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

	pool *cosim.Pool // the class solves' sessions, shared by the sweep workers

	// New sets these from the package constants; in-package tests lower
	// them or hook every outer iteration.
	tcaseLimitC float64
	maxOuter    int
	progress    func(outer int, residualC float64)
}

// New builds a solver for the topology on the given blade system. All
// blades share the system (one floorplan, stack and nominal thermosyphon
// design); each blade class carries only its own warm start, so class
// solves are independent and safely fan out across goroutines on pooled
// sessions. A fault scenario in Options is applied here: derated loops
// and per-blade derated designs feed the class partition, so faulted
// blades simply form their own classes. The system must carry the Xeon
// power model (leakage folding needs the static/dynamic split).
func New(sys *cosim.System, topo Topology, opt Options) (*Solver, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if sys.Power == nil {
		return nil, fmt.Errorf("datacenter: system has no power model")
	}
	s := &Solver{topo: topo, sys: sys, opt: opt, tcaseLimitC: sched.TCaseMax, maxOuter: maxOuter}
	sc := opt.Scenario
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
	opts := []cosim.SessionOption{cosim.WithSolver(opt.Solver)}
	if opt.Threads > 1 {
		opts = append(opts, cosim.WithThreads(opt.Threads))
	}
	s.pool = sys.NewPool(opts...)
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

// Close releases every pooled session's worker team.
func (s *Solver) Close() error { return s.pool.Close() }

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
	failed    bool // some class was infeasible at these operating points
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
// TCASE exceeds sched.TCaseMax, are throttled one DVFS step
// (sched.ThrottleStep) and the fixed point re-runs, until the fleet
// is feasible or the DVFS ladder is exhausted — classes still failing
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
			case r.tcaseC > s.tcaseLimitC:
				why = fmt.Sprintf("TCASE %.1f °C over the %.1f °C limit", r.tcaseC, s.tcaseLimitC)
			default:
				reasons[ci] = ""
				continue
			}
			cur := throttledState(s.classes[ci].st, steps[ci])
			if _, ok := sched.ThrottleStep(cur); ok {
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
	return s.report(fp, steps, reasons)
}

// runFixedPoint runs the damped outer fixed point over the loop supply
// temperatures at the given per-class states. A class whose coupled solve
// fails aborts the fixed point (result.failed set) so the caller can
// throttle and retry; ctx cancellation aborts with ctx.Err().
func (s *Solver) runFixedPoint(ctx context.Context, states []power.PackageState) (fixedPointState, error) {
	idx := make([]int, len(s.classes))
	for i := range idx {
		idx[i] = i
	}
	fp := fixedPointState{residual: math.Inf(1)}
	loopHeat := make([]float64, len(s.loops))

	for outer := 1; outer <= s.maxOuter; outer++ {
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
		res, err := sweep.Run(ctx, idx,
			func(ci int) (classResult, error) { return s.solveClass(ctx, ci, states[ci]) },
			s.opt.Workers)
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
		if s.progress != nil {
			s.progress(outer, fp.residual)
		}
		if fp.residual < tolC {
			fp.converged = true
			return fp, nil
		}
		for l := range s.loops {
			s.temps[l] += damping * (s.loops[l].SupplyC(loopHeat[l]) - s.temps[l])
		}
	}
	return fp, nil
}

// solveClass runs one class's coupled solve at its loop's current supply
// temperature on a pooled session: the class's warm start is swapped in,
// re-seated by the supply change since its previous solve, solved, and
// swapped back out once the result has been read.
func (s *Solver) solveClass(ctx context.Context, ci int, st power.PackageState) (classResult, error) {
	c := s.classes[ci]
	waterC := s.temps[c.loop]
	op := thermosyphon.Operating{
		WaterInC:     waterC,
		WaterFlowKgH: s.loops[c.loop].PerBladeFlowKgH * c.flowScale,
	}
	ses, err := s.pool.Get(c.design)
	if err != nil {
		return classResult{}, err
	}
	defer s.pool.Put(ses)
	ses.SwapCarry(&c.carry)
	defer ses.SwapCarry(&c.carry)
	ses.ReseatWater(waterC - c.lastWaterC)
	c.lastWaterC = waterC
	r, err := ses.SolveSteadyLeakage(ctx, st, op, power.DefaultLeakage())
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
}

// throttledState applies n DVFS throttle steps to a nominal state.
func throttledState(st power.PackageState, n int) power.PackageState {
	for i := 0; i < n; i++ {
		st, _ = sched.ThrottleStep(st)
	}
	return st
}

// report assembles the converged fleet state into a Report.
func (s *Solver) report(fp fixedPointState, steps []int, reasons []string) (*Report, error) {
	rep := &Report{
		OuterIterations: fp.outer,
		Converged:       fp.converged,
		ResidualC:       fp.residual,
		Classes:         len(s.classes),
		BladeSolves:     fp.outer * len(s.classes),
	}
	if s.opt.Scenario != nil {
		rep.Scenario = s.opt.Scenario.Name
	}
	// Per-blade rows in flat (rack-major) order, expanded from the class
	// results; per-loop heats re-accumulated in the same order so the
	// report is independent of the class partition.
	loopHeats := make([][]float64, len(s.topo.Loops))
	failed := make([]int, len(s.topo.Loops))
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
				Failed:        cr.failed != "",
			}
			rep.Blades = append(rep.Blades, br)
			if steps[ci] > 0 {
				rep.ThrottledBlades++
				if steps[ci] > rep.MaxThrottleSteps {
					rep.MaxThrottleSteps = steps[ci]
				}
			}
			if br.Failed {
				rep.FailedBlades++
				failed[r.Loop]++
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
			Name: name, Blades: len(loopHeats[l]), FailedBlades: failed[l], State: st,
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
	// operating point even at the lowest DVFS level; Report.Infeasible
	// names the reason. Its row carries the last operating point, or the
	// zero one when Failed.
	Infeasible bool
	// Failed marks an infeasible blade whose class solve failed, so it has
	// no operating point at all.
	Failed bool
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
	// FailedBlades counts the loop's blades whose class solve failed.
	// They have no heat to report, so State carries their water flow but
	// none of their heat.
	FailedBlades int
	// State holds the load-derived supply/return temperatures, flow and
	// heat (consistent with the fixed point's final temperatures to
	// within the 0.01 °C outer tolerance).
	State rack.LoopState
}

// Report is the converged fleet steady state.
type Report struct {
	Blades []BladeReport
	Loops  []LoopReport
	// Plant prices the chiller plant serving the loops, including the
	// facility PUE.
	Plant chiller.PlantReport
	// ITPowerW is the total blade heat (the facility IT load) of the
	// blades that have an operating point.
	ITPowerW float64
	// FailedBlades counts the blades whose class solve failed (Failed in
	// their BladeReport). ITPowerW, the loop heats and the plant leave
	// them out: a failed solve has no heat to count, and none is guessed.
	FailedBlades int
	// MaxDieC is the hottest die in the fleet.
	MaxDieC float64
	// OuterIterations is the number of outer fixed-point iterations the
	// final throttle round ran.
	OuterIterations int
	// Converged reports whether the residual fell below the 0.01 °C
	// outer tolerance within 40 iterations.
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
