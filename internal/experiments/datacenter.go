package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datacenter"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// The datacenter extension scales the paper's single-blade co-simulation
// to a facility: N racks × M blades share chiller water loops, the loop
// supply temperatures are coupled to the blade heat through the
// internal/datacenter nested fixed point, and the facility is priced as a
// chiller plant (PUE). Two studies ride on it: the scale ladder (solve
// cost and convergence vs fleet size up to 1000 blades) and a diurnal
// 24-hour quasi-static transient driven by a workload trace.

// DatacenterLoop is the shared-loop parameter set of both studies and of
// cmd/rackplan: the paper's §VI-C water point (per-blade flow, ~27 °C
// class supply) plus a finite plant approach so supply genuinely rises
// with load.
func DatacenterLoop() rack.SharedLoop {
	op := thermosyphon.DefaultOperating()
	return rack.SharedLoop{
		SetpointC:       op.WaterInC - 3, // chiller setpoint; load lifts supply back up
		ApproachKPerKW:  0.3,
		PerBladeFlowKgH: op.WaterFlowKgH,
		AmbientC:        35,
	}
}

// DatacenterStates is the fleet's blade mix: each PARSEC benchmark fully
// loads a blade at FMax with POLL idles, assigned round-robin across the
// fleet; state i runs workload.All()[i]. The fixed 13-state roster bounds
// the class count, which is what keeps the 1000-blade solve affordable.
func DatacenterStates() []power.PackageState {
	wcfg := workload.Config{Cores: 8, Threads: 8, Freq: power.FMax}
	m := FullLoadMapping(wcfg, power.POLL)
	benches := workload.All()
	states := make([]power.PackageState, len(benches))
	for i, b := range benches {
		states[i] = core.PackageState(b, m)
	}
	return states
}

// DatacenterScalePoint is one rung of the fleet-size ladder.
type DatacenterScalePoint struct {
	Blades, Racks, Loops int
	// Classes is the distinct blade-class count; BladeSolves the coupled
	// solves performed (Classes × OuterIterations).
	Classes     int
	BladeSolves int
	// OuterIterations is the damped water-temperature fixed point's count;
	// Converged whether it met the solver tolerance.
	OuterIterations int
	Converged       bool
	ITPowerW        float64
	MaxDieC         float64
	// MaxSupplyC is the hottest loop's converged supply temperature.
	MaxSupplyC float64
	PUE        float64
	// Wall is the measured solve time. It lives only in this typed API —
	// the registry tables stay deterministic.
	Wall time.Duration
}

// datacenterLadder is the fleet-size ladder of the scale study; loops
// grow with the fleet so per-loop load stays in a realistic band.
var datacenterLadder = []struct{ racks, perRack, loops int }{
	{2, 16, 1},  // 32 blades
	{8, 32, 2},  // 256 blades
	{25, 40, 4}, // 1000 blades
}

// ExtDatacenterScale runs the nested fleet solve at each ladder rung and
// reports convergence, cost and facility metrics. One blade system is
// shared by every rung (the fleet shares a floorplan and thermosyphon
// design); each rung gets a fresh solver so every solve starts from cold
// loop temperatures and the outer-iteration counts are comparable.
func ExtDatacenterScale(ctx context.Context, cfg RunConfig) ([]DatacenterScalePoint, error) {
	sys, err := NewSystem(thermosyphon.DefaultDesign(), cfg.Resolution)
	if err != nil {
		return nil, err
	}
	states := DatacenterStates()
	out := make([]DatacenterScalePoint, 0, len(datacenterLadder))
	for _, rung := range datacenterLadder {
		topo, err := datacenter.Uniform(rung.racks, rung.perRack, rung.loops, DatacenterLoop(), states)
		if err != nil {
			return nil, err
		}
		rcfg := cfg.SplitBudget(topo.NumClasses())
		s, err := datacenter.New(sys, topo, datacenter.Options{
			Solver:  rcfg.Solver,
			Workers: rcfg.Workers,
			Threads: rcfg.Threads,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := s.Solve(ctx)
		wall := time.Since(start)
		s.Close()
		if err != nil {
			return nil, fmt.Errorf("datacenter: %d blades: %w", topo.NumBlades(), err)
		}
		p := DatacenterScalePoint{
			Blades: topo.NumBlades(), Racks: rung.racks, Loops: rung.loops,
			Classes: rep.Classes, BladeSolves: rep.BladeSolves,
			OuterIterations: rep.OuterIterations, Converged: rep.Converged,
			ITPowerW: rep.ITPowerW, MaxDieC: rep.MaxDieC, PUE: rep.Plant.PUE,
			Wall: wall,
		}
		for _, l := range rep.Loops {
			if l.State.SupplyC > p.MaxSupplyC {
				p.MaxSupplyC = l.State.SupplyC
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// DatacenterHour is one hour of the diurnal transient.
type DatacenterHour struct {
	Hour int
	// LoadFactor is the fleet-wide dynamic-power multiplier from the
	// diurnal trace.
	LoadFactor      float64
	ITPowerW        float64
	MaxDieC         float64
	MaxSupplyC      float64
	PUE             float64
	OuterIterations int
}

// ExtDatacenterDiurnal drives a fixed fleet through the 24-hour diurnal
// utilization curve as a quasi-static series: blade thermal time
// constants are far below an hour, so each hour is a steady solve at that
// hour's load factor. One solver carries the converged loop temperatures
// and blade warm starts from hour to hour, so only the load steps at the
// morning ramp and evening tail cost more than a couple of outer
// iterations.
func ExtDatacenterDiurnal(ctx context.Context, cfg RunConfig) ([]DatacenterHour, error) {
	sys, err := NewSystem(thermosyphon.DefaultDesign(), cfg.Resolution)
	if err != nil {
		return nil, err
	}
	topo, err := datacenter.Uniform(4, 8, 2, DatacenterLoop(), DatacenterStates())
	if err != nil {
		return nil, err
	}
	rcfg := cfg.SplitBudget(topo.NumClasses())
	s, err := datacenter.New(sys, topo, datacenter.Options{
		Solver:  rcfg.Solver,
		Workers: rcfg.Workers,
		Threads: rcfg.Threads,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	trace := workload.DiurnalTrace(24)
	out := make([]DatacenterHour, 0, len(trace))
	for hour, factor := range trace {
		rep, err := s.SolveScaled(ctx, factor)
		if err != nil {
			return nil, fmt.Errorf("datacenter: hour %d: %w", hour, err)
		}
		h := DatacenterHour{
			Hour: hour, LoadFactor: factor,
			ITPowerW: rep.ITPowerW, MaxDieC: rep.MaxDieC, PUE: rep.Plant.PUE,
			OuterIterations: rep.OuterIterations,
		}
		for _, l := range rep.Loops {
			if l.State.SupplyC > h.MaxSupplyC {
				h.MaxSupplyC = l.State.SupplyC
			}
		}
		out = append(out, h)
	}
	return out, nil
}
