package thermosyphon

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// State is the converged thermosyphon operating state for one heat-flux
// distribution: the per-cell boundary condition for the thermal model plus
// the loop and condenser solutions.
type State struct {
	Condenser CondenserSolution
	Loop      LoopSolution
	// H is the per-cell effective heat transfer coefficient (W/m²·K) on
	// the evaporator base grid.
	H []float64
	// TFluid is the per-cell refrigerant temperature (°C), below
	// saturation near the inlet.
	TFluid []float64
	// TotalHeatW is the heat load the state was solved for.
	TotalHeatW float64
	// MaxQuality is the highest vapor quality reached in any channel.
	MaxQuality float64
	// DryoutCells counts cells operating beyond the critical quality.
	DryoutCells int
}

// boiling holds the terms of the local flow-boiling heat transfer
// coefficient that depend only on the saturation temperature, so a channel
// march evaluates them once, not per cell.
type boiling struct {
	hl  float64 // liquid-only convective HTC (W/m²·K)
	acc float64 // vapor-acceleration factor (ρl/ρv)^0.35
	xc  float64 // dryout onset quality
}

// boilingAt evaluates the saturation-only terms of the boiling HTC at
// tsatC.
func (d *Design) boilingAt(tsatC float64) boiling {
	fl := d.Fluid
	return boiling{
		hl:  4.36 * fl.KLiquid(tsatC) / d.ChannelHydraulicDiam,
		acc: math.Pow(fl.RhoLiquid(tsatC)/fl.RhoVapor(tsatC), 0.35),
		xc:  d.CritQuality(),
	}
}

// htc returns the local flow-boiling heat transfer coefficient (W/m²·K,
// per wetted area) at vapor quality x and wall heat flux qFlux (W/m²): a
// nucleate term (Cooper-style q″^0.7) plus a convective term enhanced by
// vapor acceleration, rolled off beyond the dryout quality.
func (b boiling) htc(x, qFlux float64) float64 {
	hnb := 2.2 * math.Pow(math.Max(qFlux, 1000), 0.7)
	x = linalg.Clamp(x, 0, 1)
	hcv := b.hl * (1 + 2.2*math.Pow(x, 0.8)*b.acc)
	h := hnb + hcv
	// Past the critical quality the liquid film breaks down: the HTC
	// falls steeply toward a 25 % vapor-convection floor.
	if x > b.xc {
		h *= math.Max(0.25, 1-1.5*(x-b.xc))
	}
	return h
}

// channelCount returns the number of parallel channels on the grid.
func channelCount(o Orientation, grid floorplan.Grid) int {
	if o.Horizontal() {
		return grid.NY
	}
	return grid.NX
}

// channelSpan describes one channel's marching order without materializing
// it: cell indices are start, start+stride, … (n cells). Horizontal
// channels are grid rows traversed west→east (InletWest) or east→west;
// vertical channels are grid columns traversed north→south (InletNorth)
// or south→north.
func channelSpan(o Orientation, grid floorplan.Grid, channel int) (start, stride, n int) {
	switch o {
	case InletWest:
		return grid.Index(0, channel), 1, grid.NX
	case InletEast:
		return grid.Index(grid.NX-1, channel), -1, grid.NX
	case InletNorth:
		return grid.Index(channel, 0), grid.NX, grid.NY
	default: // InletSouth
		return grid.Index(channel, grid.NY-1), -grid.NX, grid.NY
	}
}

// EvaporateInto solves the thermosyphon for the given per-cell absorbed
// heat (W per grid cell, as extracted from the thermal model's top
// boundary): condenser sets the saturation temperature, the gravity loop
// sets the mass flow, and a 1-D quality march along every channel yields
// the local HTC and fluid temperature fields.
//
// st's H and TFluid buffers are recycled when correctly sized (st may be
// nil or mis-sized, in which case fresh buffers are made) and every output
// field is overwritten, so repeated calls on one state are allocation-free
// apart from the loop-balance bisection closure. The returned state is st
// when it was reusable.
func (d *Design) EvaporateInto(st *State, grid floorplan.Grid, cellHeat []float64, op Operating) (*State, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := op.Validate(); err != nil {
		return nil, err
	}
	if len(cellHeat) != grid.Cells() {
		return nil, fmt.Errorf("thermosyphon: heat vector has %d cells, want %d", len(cellHeat), grid.Cells())
	}
	var q float64
	for _, w := range cellHeat {
		if w > 0 {
			q += w
		}
	}
	if q < 1 {
		q = 1 // keep the loop solvable at near-idle loads
	}
	cond, err := d.Condense(q, op)
	if err != nil {
		return nil, err
	}
	loop, err := d.SolveLoop(q, cond.TsatC)
	if err != nil {
		return nil, err
	}

	if st == nil || len(st.H) != grid.Cells() || len(st.TFluid) != grid.Cells() {
		st = &State{
			H:      make([]float64, grid.Cells()),
			TFluid: make([]float64, grid.Cells()),
		}
	}
	// Every H/TFluid cell is overwritten by the march below; reset the
	// accumulated scalars so a reused state starts clean.
	st.Condenser = cond
	st.Loop = loop
	st.TotalHeatW = q
	st.MaxQuality = 0
	st.DryoutCells = 0
	nCh := channelCount(d.Orientation, grid)
	mh := d.channelFlowHfg(st, nCh)
	cellArea := grid.DX * grid.DY
	boil := d.boilingAt(cond.TsatC)

	for ch := 0; ch < nCh; ch++ {
		start, stride, n := channelSpan(d.Orientation, grid, ch)
		x := 0.0
		for pos := 0; pos < n; pos++ {
			c := start + pos*stride
			w := math.Max(cellHeat[c], 0)
			xMid := qualityAfter(x, 0.5*w, mh)
			qFlux := w / cellArea
			st.H[c] = boil.htc(xMid, qFlux) * d.AreaEnhancement
			// Inlet subcooling decays over the first SubcoolFraction of
			// the channel.
			frac := float64(pos) / float64(n)
			sub := 0.0
			if d.SubcoolFraction > 0 && frac < d.SubcoolFraction {
				sub = d.InletSubcoolC * (1 - frac/d.SubcoolFraction)
			}
			st.TFluid[c] = cond.TsatC - sub
			if xMid > boil.xc {
				st.DryoutCells++
			}
			x = qualityAfter(x, w, mh)
		}
		if x > st.MaxQuality {
			st.MaxQuality = x
		}
	}
	return st, nil
}

// channelFlowHfg is the latent-heat capacity of one channel's flow in the
// march st holds (W per unit quality): the loop's mass flow shared over
// nCh channels, times the latent heat at the condenser's saturation
// temperature.
func (d *Design) channelFlowHfg(st *State, nCh int) float64 {
	return st.Loop.MassFlowKgS / float64(nCh) * d.Fluid.Hfg(st.Condenser.TsatC)
}

// qualityAfter is the vapor quality after a channel entering at quality x
// absorbs w watts, at a flow latent-heat capacity mh (channelFlowHfg),
// clamped short of pure vapor.
func qualityAfter(x, w, mh float64) float64 {
	return linalg.Clamp(x+w/mh, 0, 0.99)
}
