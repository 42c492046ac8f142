// Package faults models cooling-degradation scenarios for the two-phase
// thermosyphon fleet: a typed Fault (pump degradation, partial dryout,
// condenser fouling, HTC drift, blade cooling loss) with a severity and an
// onset time, composed into a Scenario that is applied declaratively to
// the thermosyphon designs and shared water loops of a topology.
//
// Everything here is a pure, closed-form transformation of model
// parameters — no randomness, no state — so a faulted fleet keeps the
// repository's byte-determinism contract: pooled and serial sweeps over a
// faulted topology produce identical bytes.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/rack"
	"repro/internal/thermosyphon"
)

// Kind enumerates the cooling-failure mechanisms of ROADMAP item 4. Each
// maps onto one physical knob the thermosyphon/rack models already expose.
type Kind int

// Fault kinds.
const (
	// PumpDegradation: the loop's water pump loses head, cutting the
	// per-blade water flow in proportion to severity. A loop-level fault.
	PumpDegradation Kind = iota
	// PartialDryout: refrigerant undercharge derates the filling ratio,
	// which lowers the critical vapor quality — channels dry out earlier
	// and the boiling HTC collapses sooner along the evaporator.
	PartialDryout
	// CondenserFouling: scaling on the water side of the condenser derates
	// its UA, so condensation needs a larger refrigerant-to-water ΔT.
	CondenserFouling
	// HTCDrift: surface aging erodes the enhanced boiling structure,
	// pulling the area-enhancement factor back toward a plain wall.
	HTCDrift
	// BladeCoolingLoss: one blade's quick-disconnect partially closes,
	// cutting that blade's share of the loop flow. A blade-level fault.
	BladeCoolingLoss
)

// kindNames spells each kind the way the -fault flag does.
var kindNames = [...]string{
	PumpDegradation:  "pump",
	PartialDryout:    "dryout",
	CondenserFouling: "fouling",
	HTCDrift:         "htc",
	BladeCoolingLoss: "bladeloss",
}

// String names the kind the way the -fault command-line flag spells it.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Kinds lists every fault kind in declaration order — the sweep order of
// the failure-scenarios experiment.
func Kinds() []Kind {
	return []Kind{PumpDegradation, PartialDryout, CondenserFouling, HTCDrift, BladeCoolingLoss}
}

// ParseKind parses a -fault kind name.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q (want %s)", s, strings.Join(kindNames[:], "|"))
}

// Fault is one cooling degradation: a mechanism, how far it has
// progressed, where it applies, and when it sets in.
type Fault struct {
	Kind Kind
	// Severity is the degradation fraction in [0,1): 0 is healthy, values
	// approaching 1 are complete failure of the mechanism. 1 itself is
	// rejected — a fully failed pump or condenser leaves the model with no
	// flow/no UA, which the underlying validators refuse.
	Severity float64
	// Loop restricts the fault to the named water loop ("" = every loop).
	Loop string
	// Blade restricts the fault to the named blade ("" = every blade in
	// scope). Only meaningful for blade- and design-level faults.
	Blade string
	// OnsetHour gates the fault in time-resolved runs: before this hour
	// the fault is inactive (ActiveAt). Steady solves treat every fault
	// as active.
	OnsetHour float64
}

// Validate checks the fault parameters.
func (f Fault) Validate() error {
	// The negated range test also rejects NaN, which fails every
	// comparison.
	if !(f.Severity >= 0 && f.Severity < 1) {
		return fmt.Errorf("faults: %s severity %g out of range [0,1)", f.Kind, f.Severity)
	}
	if int(f.Kind) >= len(kindNames) || f.Kind < 0 {
		return fmt.Errorf("faults: invalid kind %d", int(f.Kind))
	}
	if math.IsNaN(f.OnsetHour) || math.IsInf(f.OnsetHour, 0) {
		return fmt.Errorf("faults: %s onset hour %g is not finite", f.Kind, f.OnsetHour)
	}
	if f.OnsetHour < 0 {
		return fmt.Errorf("faults: %s onset hour %g is negative", f.Kind, f.OnsetHour)
	}
	return nil
}

// matches reports whether the fault applies to the named loop and blade.
func (f Fault) matches(loop, blade string) bool {
	if f.Loop != "" && f.Loop != loop {
		return false
	}
	if f.Blade != "" && f.Blade != blade {
		return false
	}
	return true
}

// Scenario composes faults into one named failure case. The zero value
// (no faults) is the healthy baseline.
type Scenario struct {
	Name   string
	Faults []Fault
}

// Validate checks every fault.
func (s *Scenario) Validate() error {
	for i, f := range s.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// Empty reports a scenario with no faults — the healthy fleet.
func (s *Scenario) Empty() bool { return s == nil || len(s.Faults) == 0 }

// ActiveAt returns the scenario restricted to faults whose onset hour has
// passed — the scenario a time-resolved trace applies at the given hour.
func (s *Scenario) ActiveAt(hour float64) Scenario {
	out := Scenario{Name: s.Name}
	for _, f := range s.Faults {
		if f.OnsetHour <= hour {
			out.Faults = append(out.Faults, f)
		}
	}
	return out
}

// ApplyDesign derates a thermosyphon design for the named blade on the
// named loop. Severities compose multiplicatively when several faults hit
// the same knob. The derated design stays within Design.Validate bounds
// for any severity in [0,1): filling ratio is floored just above the
// validator's minimum, and the enhancement factor decays toward (but
// never below) a plain wall.
func (s *Scenario) ApplyDesign(d thermosyphon.Design, loop, blade string) thermosyphon.Design {
	if s.Empty() {
		return d
	}
	for _, f := range s.Faults {
		if !f.matches(loop, blade) {
			continue
		}
		switch f.Kind {
		case PartialDryout:
			d.FillingRatio *= 1 - f.Severity
			if d.FillingRatio < 0.06 {
				d.FillingRatio = 0.06
			}
		case CondenserFouling:
			d.CondenserUA *= 1 - f.Severity
		case HTCDrift:
			d.AreaEnhancement = 1 + (d.AreaEnhancement-1)*(1-f.Severity)
		}
	}
	return d
}

// ApplyLoop derates a shared water loop: pump degradation cuts the
// per-blade flow every blade on the loop sees.
func (s *Scenario) ApplyLoop(l rack.SharedLoop, loop string) rack.SharedLoop {
	if s.Empty() {
		return l
	}
	for _, f := range s.Faults {
		if f.Kind != PumpDegradation || !f.matches(loop, "") {
			continue
		}
		l.PerBladeFlowKgH *= 1 - f.Severity
	}
	return l
}

// FlowScale returns the residual water-flow fraction the named blade
// keeps after its blade-level cooling faults (1 = unaffected). Loop-level
// pump degradation is not included here — ApplyLoop already carries it.
func (s *Scenario) FlowScale(loop, blade string) float64 {
	scale := 1.0
	if s.Empty() {
		return scale
	}
	for _, f := range s.Faults {
		if f.Kind != BladeCoolingLoss || !f.matches(loop, blade) {
			continue
		}
		scale *= 1 - f.Severity
	}
	return scale
}

// Parse builds a scenario from the -fault flag syntax: comma-separated
// kind:severity terms, each optionally scoped and timed —
//
//	kind:severity[:loop[:blade]][@onsetHour]
//
// e.g. "pump:0.5", "pump:0.4,fouling:0.3", "bladeloss:0.6:loop0:r3b2",
// "fouling:0.5@8". An empty string parses to the healthy scenario.
func Parse(spec string) (Scenario, error) {
	sc := Scenario{Name: spec}
	if strings.TrimSpace(spec) == "" {
		sc.Name = "healthy"
		return sc, nil
	}
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		var f Fault
		if at := strings.LastIndexByte(term, '@'); at >= 0 {
			h, err := strconv.ParseFloat(term[at+1:], 64)
			if err != nil {
				return Scenario{}, fmt.Errorf("faults: bad onset hour in %q: %v", term, err)
			}
			f.OnsetHour = h
			term = term[:at]
		}
		parts := strings.Split(term, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return Scenario{}, fmt.Errorf("faults: bad fault term %q (want kind:severity[:loop[:blade]][@hour])", term)
		}
		k, err := ParseKind(parts[0])
		if err != nil {
			return Scenario{}, err
		}
		f.Kind = k
		sev, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return Scenario{}, fmt.Errorf("faults: bad severity in %q: %v", term, err)
		}
		f.Severity = sev
		if len(parts) >= 3 {
			f.Loop = parts[2]
		}
		if len(parts) == 4 {
			f.Blade = parts[3]
		}
		if err := f.Validate(); err != nil {
			return Scenario{}, err
		}
		sc.Faults = append(sc.Faults, f)
	}
	return sc, nil
}
