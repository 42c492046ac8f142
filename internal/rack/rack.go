// Package rack models the rack-level constraint of §V: one chiller per
// rack supplies every thermosyphon with the same water temperature, so the
// shared water temperature must satisfy the hottest blade. The loop's
// supply and return follow from the blade heats it carries.
package rack

import (
	"fmt"

	"repro/internal/refrigerant"
)

// SharedLoop models the shared water loop as a coupled thermal boundary:
// every blade on the loop receives the same supply temperature, but that
// temperature is no longer an assumed constant — the chiller plant holds
// its setpoint only at zero load and backs off as the plant heat exchanger
// loads up, so the supply (and with it every blade's cooling boundary) is
// derived from the very blade heats it helps produce. The datacenter
// solver closes this loop with a damped fixed point; SharedLoop provides
// the loop-side physics.
type SharedLoop struct {
	// SetpointC is the chiller supply setpoint: the water temperature the
	// loop delivers at zero heat load.
	SetpointC float64
	// ApproachKPerKW is the supply-temperature rise per kW of loop heat —
	// the finite-UA approach of the plant heat exchanger. Zero reproduces
	// the old fixed-water-temperature behaviour.
	ApproachKPerKW float64
	// PerBladeFlowKgH is the condenser flow each blade receives.
	PerBladeFlowKgH float64
	// AmbientC is the heat-rejection temperature.
	AmbientC float64
}

// SupplyC returns the loop supply (blade inlet) water temperature at the
// given total heat load.
func (l SharedLoop) SupplyC(totalHeatW float64) float64 {
	return l.SetpointC + l.ApproachKPerKW*totalHeatW/1000
}

// LoopState is the water state of a loaded loop: both end temperatures are
// derived from the blade heats, not assumed.
type LoopState struct {
	// SupplyC is the blade inlet temperature at this load.
	SupplyC float64
	// ReturnC is the mixed blade outlet temperature entering the chiller.
	ReturnC float64
	// FlowKgH is the total loop water flow.
	FlowKgH float64
	// HeatW is the total heat the loop carries.
	HeatW float64
}

// Boundary derives the loop water state from the blade heats: the supply
// follows the plant's load-dependent approach, the blades (plumbed in
// parallel) heat the combined flow, and the return is the mixed outlet.
func (l SharedLoop) Boundary(bladeHeatW []float64) (LoopState, error) {
	var total float64
	for _, q := range bladeHeatW {
		if q < 0 {
			return LoopState{}, fmt.Errorf("rack: negative blade heat %g", q)
		}
		total += q
	}
	flow := l.PerBladeFlowKgH * float64(len(bladeHeatW))
	if flow <= 0 {
		return LoopState{}, fmt.Errorf("rack: no water flow")
	}
	supply := l.SupplyC(total)
	mdotCp := flow / 3600 * refrigerant.WaterCp(supply)
	return LoopState{
		SupplyC: supply,
		ReturnC: supply + total/mdotCp,
		FlowKgH: flow,
		HeatW:   total,
	}, nil
}
