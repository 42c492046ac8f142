// Package thermosyphon models the micro-scale gravity-driven two-phase
// thermosyphon of Seuret et al. (ITHERM'18) that the paper designs and
// tunes: a micro-channel evaporator sitting on the CPU package, a riser, a
// water-cooled micro-condenser, and a gravity-fed downcomer.
//
// The model captures the mechanisms the paper's design study and mapping
// policy exploit:
//
//   - flow-boiling heat transfer that improves with vapor quality and then
//     collapses past a dryout threshold set by the filling ratio, which is
//     why two hot cores on one channel ("the same horizontal line", §VII)
//     are worse than one;
//   - a slightly subcooled channel inlet, which is why the orientation of
//     the evaporator relative to the die's hot side matters (§VI-A);
//   - a natural-circulation mass flow balancing gravitational driving head
//     against two-phase friction, sensitive to the filling ratio (§VI-B);
//   - an ε-NTU water condenser whose inlet temperature and flow rate are
//     the runtime-tunable knobs (§VI-C).
package thermosyphon

import (
	"fmt"
	"math"

	"repro/internal/refrigerant"
)

// Orientation places the evaporator inlet relative to the die (§VI-A).
// InletWest and InletEast run the micro-channels east-west (the paper's
// Design 1); InletNorth and InletSouth run them north-south (Design 2).
type Orientation int

// The four candidate orientations.
const (
	// InletWest feeds refrigerant from the west edge, flowing eastward
	// over the die's core columns first. This is the paper's chosen
	// Design 1: the coolest fluid covers the die's hot (west) side.
	InletWest Orientation = iota
	// InletEast flows westward: channels still east-west, but the cores
	// see the highest-quality (warmest) fluid.
	InletEast
	// InletNorth flows southward with north-south channels (Design 2).
	InletNorth
	// InletSouth flows northward with north-south channels.
	InletSouth
)

// String names the orientation.
func (o Orientation) String() string {
	switch o {
	case InletWest:
		return "inlet-west"
	case InletEast:
		return "inlet-east"
	case InletNorth:
		return "inlet-north"
	case InletSouth:
		return "inlet-south"
	default:
		return fmt.Sprintf("orientation(%d)", int(o))
	}
}

// Horizontal reports whether the channels run east-west.
func (o Orientation) Horizontal() bool { return o == InletWest || o == InletEast }

// Orientations lists all candidate orientations for the design sweep.
func Orientations() []Orientation {
	return []Orientation{InletWest, InletEast, InletNorth, InletSouth}
}

// Design collects the design-time parameters of the thermosyphon (§VI).
type Design struct {
	// Fluid is the refrigerant charge.
	Fluid *refrigerant.Fluid
	// FillingRatio is the liquid fill fraction of the loop volume (§VI-B);
	// the paper chooses 55 % for R236fa.
	FillingRatio float64
	// Orientation places the evaporator inlet (§VI-A).
	Orientation Orientation

	// ChannelHydraulicDiam is the micro-channel hydraulic diameter (m).
	ChannelHydraulicDiam float64
	// AreaEnhancement is the wetted-to-base area ratio from the channel
	// fins.
	AreaEnhancement float64
	// InletSubcoolC is the inlet subcooling (°C) from the static head of
	// the downcomer; it decays over the first part of the channel.
	InletSubcoolC float64
	// SubcoolFraction is the fraction of the channel length over which
	// the inlet subcooling decays to zero.
	SubcoolFraction float64

	// RiserHeight is the condenser elevation above the evaporator (m).
	RiserHeight float64
	// PipeArea is the riser/downcomer flow area (m²).
	PipeArea float64
	// LoopK is the lumped friction loss coefficient of the loop.
	LoopK float64

	// CondenserUA is the condenser conductance (W/K) at nominal water
	// flow.
	CondenserUA float64
}

// DefaultDesign returns the paper's chosen design point: R236fa at 55 %
// filling with the inlet on the west (Design 1).
func DefaultDesign() Design {
	return Design{
		Fluid:                refrigerant.R236fa(),
		FillingRatio:         0.55,
		Orientation:          InletWest,
		ChannelHydraulicDiam: 0.9e-3,
		AreaEnhancement:      2.5,
		InletSubcoolC:        4.0,
		SubcoolFraction:      0.45,
		RiserHeight:          0.15,
		PipeArea:             1.26e-5, // 4 mm ID
		LoopK:                75,
		CondenserUA:          25,
	}
}

// Validate checks the design for physical plausibility. Every range test
// is written so that it fails for NaN, and parameters without a range
// must still be finite: a NaN or Inf would otherwise pass every check and
// poison the coupled solve.
func (d *Design) Validate() error {
	switch {
	case d.Fluid == nil:
		return fmt.Errorf("thermosyphon: no refrigerant")
	case !(d.FillingRatio > 0.05 && d.FillingRatio < 0.95):
		return fmt.Errorf("thermosyphon: filling ratio %.2f outside (0.05,0.95)", d.FillingRatio)
	case !positiveFinite(d.ChannelHydraulicDiam):
		return fmt.Errorf("thermosyphon: hydraulic diameter %g not positive and finite", d.ChannelHydraulicDiam)
	case !(d.AreaEnhancement >= 1) || math.IsInf(d.AreaEnhancement, 1):
		return fmt.Errorf("thermosyphon: area enhancement %g not finite and ≥ 1", d.AreaEnhancement)
	case math.IsNaN(d.InletSubcoolC) || math.IsInf(d.InletSubcoolC, 0):
		return fmt.Errorf("thermosyphon: non-finite inlet subcooling")
	case !positiveFinite(d.RiserHeight) || !positiveFinite(d.PipeArea) || !positiveFinite(d.LoopK) || !positiveFinite(d.CondenserUA):
		return fmt.Errorf("thermosyphon: loop parameter not positive and finite")
	case !(d.SubcoolFraction >= 0 && d.SubcoolFraction <= 1):
		return fmt.Errorf("thermosyphon: subcool fraction %g outside [0,1]", d.SubcoolFraction)
	}
	return nil
}

// positiveFinite reports whether x is a positive finite number (false for
// NaN).
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// CritQuality returns the dryout onset quality for the design's filling
// ratio: under-filled loops dry out sooner because the circulating charge
// cannot keep the channel walls wetted.
func (d *Design) CritQuality() float64 {
	xc := 0.25 + 0.6*d.FillingRatio
	if xc > 0.80 {
		xc = 0.80
	}
	return xc
}

// condenserEffUA returns the effective condenser conductance: over-filled
// loops flood the condenser with liquid, blanking part of its area
// (§VI-B's trade-off against early dryout at low fill).
func (d *Design) condenserEffUA() float64 {
	ua := d.CondenserUA
	if d.FillingRatio > 0.70 {
		ua *= 1 - 0.6*(d.FillingRatio-0.70)/0.30
	}
	return ua
}

// Operating are the runtime-tunable cooling parameters (§VI-C).
type Operating struct {
	// WaterInC is the chiller-supplied inlet water temperature (°C).
	WaterInC float64
	// WaterFlowKgH is the condenser water flow rate (kg/h); the paper's
	// design point is 7 kg/h at 30 °C.
	WaterFlowKgH float64
}

// DefaultOperating returns the paper's §VI-C design point.
func DefaultOperating() Operating { return Operating{WaterInC: 30, WaterFlowKgH: 7} }

// Validate checks the operating point. Both tests fail for NaN, and the
// flow must be finite.
func (op Operating) Validate() error {
	if !positiveFinite(op.WaterFlowKgH) {
		return fmt.Errorf("thermosyphon: water flow %g kg/h not positive and finite", op.WaterFlowKgH)
	}
	if !(op.WaterInC >= 0 && op.WaterInC <= 90) {
		return fmt.Errorf("thermosyphon: water temperature %.1f outside [0,90] °C", op.WaterInC)
	}
	return nil
}

// WaterHeatCapacity returns the coolant capacity rate C_w = ṁ·c_p (W/K).
func (op Operating) WaterHeatCapacity() float64 {
	mdot := op.WaterFlowKgH / 3600.0
	return mdot * refrigerant.WaterCp(op.WaterInC)
}
