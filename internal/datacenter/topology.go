// Package datacenter scales the single-server co-simulation to a fleet:
// N racks × M blades share chiller water loops, and the loop water
// temperatures are coupled to the blade solves by a nested fixed point.
//
// The nesting is two-level. The inner level is the per-blade coupled
// solve the rest of the repository is built on: one fixed point
// (cosim.Session.SolveSteadyLeakage) that converges the thermal field,
// the thermosyphon boundary and the temperature-dependent leakage power
// together. The outer level closes the loop the rack layer used to leave
// open: each loop's supply temperature is derived from the heat its
// blades reject (rack.SharedLoop.SupplyC), that temperature feeds back
// into every blade solve on the loop, and a damped fixed point iterates
// the per-loop supply temperatures until they stop moving. Convergence is
// declared when the largest undamped per-loop supply update falls below
// 0.01 °C (the tolC constant — an order of magnitude below the 0.1 °C the
// experiments resolve).
//
// Two mechanisms make the fleet solve fast without giving up exactness:
//
//   - Class aggregation: blades that are byte-identical inputs — the same
//     package state on the same loop — necessarily produce byte-identical
//     solves, so each equivalence class is solved once per outer
//     iteration and its heat is multiplied by the class population. A
//     fully heterogeneous fleet degrades gracefully to one class per
//     blade.
//   - Warm-start carry: each class keeps its converged field and flux (a
//     cosim.Carry) across outer iterations (and across successive Solve
//     calls, e.g. the hours of a diurnal sweep). Class solves run on
//     sessions from the solver's cosim.Pool, which hands out sessions
//     per thermosyphon design: a solve swaps its class's carry into an
//     idle session, re-seats it by the supply-temperature delta
//     (Session.ReseatWater), solves and swaps it back out, so outer
//     iterations after the first cost a few refinement passes while at
//     most workers × designs sessions exist, not one per class.
//
// Determinism: class solves fan out through sweep.Run onto any pooled
// session, but a session carries no numerical state between solves
// except the carry each class swaps in, each class is evaluated exactly
// once per outer iteration, and per-loop heats are accumulated in class
// order from the input-ordered result slice — so a pooled solve is
// byte-identical to a serial one at any workers × threads split, warm
// starts included (the per-class solve sequences are
// schedule-independent). This is asserted by the determinism tests at
// 1×1 vs 4×2 under cg and mgpcg.
package datacenter

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/rack"
)

// Loop is one shared water loop of the facility: the rack-layer coupled
// boundary plus a label for reports.
type Loop struct {
	Name string
	rack.SharedLoop
}

// Blade is one server blade: a label and the CPU package operating point
// the blade runs at.
type Blade struct {
	Name string
	// State is the package operating point (frequencies, per-core loads)
	// the blade's power map is assembled from.
	State power.PackageState
}

// Rack is one rack of blades plumbed into a shared loop.
type Rack struct {
	Name string
	// Loop indexes Topology.Loops.
	Loop int
	// Blades are the rack's servers, in slot order.
	Blades []Blade
}

// Topology is the facility: water loops and the racks they serve.
type Topology struct {
	Loops []Loop
	Racks []Rack
}

// Validate checks structural consistency.
func (t *Topology) Validate() error {
	if len(t.Loops) == 0 {
		return fmt.Errorf("datacenter: topology has no loops")
	}
	if len(t.Racks) == 0 {
		return fmt.Errorf("datacenter: topology has no racks")
	}
	for i, l := range t.Loops {
		if l.PerBladeFlowKgH <= 0 {
			return fmt.Errorf("datacenter: loop %d (%s): non-positive per-blade flow", i, l.Name)
		}
		if l.SetpointC < 0 || l.SetpointC > 90 {
			return fmt.Errorf("datacenter: loop %d (%s): setpoint %.1f °C outside [0,90]", i, l.Name, l.SetpointC)
		}
		if l.ApproachKPerKW < 0 {
			return fmt.Errorf("datacenter: loop %d (%s): negative approach", i, l.Name)
		}
	}
	served := make([]bool, len(t.Loops))
	for i, r := range t.Racks {
		if r.Loop < 0 || r.Loop >= len(t.Loops) {
			return fmt.Errorf("datacenter: rack %d (%s): loop index %d out of range", i, r.Name, r.Loop)
		}
		if len(r.Blades) == 0 {
			return fmt.Errorf("datacenter: rack %d (%s): no blades", i, r.Name)
		}
		served[r.Loop] = true
	}
	for i, s := range served {
		if !s {
			return fmt.Errorf("datacenter: loop %d (%s) serves no rack", i, t.Loops[i].Name)
		}
	}
	return nil
}

// NumBlades returns the total blade count.
func (t *Topology) NumBlades() int {
	var n int
	for _, r := range t.Racks {
		n += len(r.Blades)
	}
	return n
}

// NumClasses returns the number of distinct blade equivalence classes —
// the per-outer-iteration solve count, and the point count callers should
// size worker pools for.
func (t *Topology) NumClasses() int {
	type key struct {
		loop int
		st   power.PackageState
	}
	seen := make(map[key]struct{})
	for _, r := range t.Racks {
		for _, b := range r.Blades {
			seen[key{r.Loop, b.State}] = struct{}{}
		}
	}
	return len(seen)
}

// Uniform builds an nRacks × bladesPerRack topology over nLoops shared
// loops with identical loop parameters: rack r feeds loop r mod nLoops,
// and blade states are assigned round-robin from states in flat
// (rack-major) order. It is the builder the scale experiments and
// cmd/rackplan use.
func Uniform(nRacks, bladesPerRack, nLoops int, loop rack.SharedLoop, states []power.PackageState) (Topology, error) {
	if nRacks < 1 || bladesPerRack < 1 {
		return Topology{}, fmt.Errorf("datacenter: need at least one rack and one blade per rack, got %d×%d", nRacks, bladesPerRack)
	}
	if nLoops < 1 || nLoops > nRacks {
		return Topology{}, fmt.Errorf("datacenter: loop count %d outside [1,%d racks]", nLoops, nRacks)
	}
	if len(states) == 0 {
		return Topology{}, fmt.Errorf("datacenter: no blade states")
	}
	var t Topology
	for l := 0; l < nLoops; l++ {
		t.Loops = append(t.Loops, Loop{Name: fmt.Sprintf("loop%d", l), SharedLoop: loop})
	}
	blade := 0
	for r := 0; r < nRacks; r++ {
		rk := Rack{Name: fmt.Sprintf("rack%d", r), Loop: r % nLoops}
		for b := 0; b < bladesPerRack; b++ {
			rk.Blades = append(rk.Blades, Blade{
				Name:  fmt.Sprintf("r%db%d", r, b),
				State: states[blade%len(states)],
			})
			blade++
		}
		t.Racks = append(t.Racks, rk)
	}
	return t, nil
}
