package cosim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/thermosyphon"
)

// leakTol is the power half of a leakage solve's stop test: no block's
// re-derived power may have moved by more than this (W) in the last pass.
// A pass moves a block's power by ΔP = β·P_static·Scale(T)·ΔT, and a fixed
// point contracting by λ per pass stops about λ/(1−λ) passes' worth of
// change short. The slowest case here, λ ≈ 0.85 (λ/(1−λ) ≈ 5.7), is the
// hottest unthrottled pump:0.6,fouling:0.6 blade (ferret, 114 °C die),
// whose cores' 5 W POLL share at Scale ≈ 1.8 gives β·5·1.8 ≈ 0.11 W/°C:
// ΔP < 5e-4 W holds ΔT under 0.0045 °C per pass and the error under
// ≈ 0.026 °C, inside TestLeakageAccuracy's 0.03 °C (0.020 °C measured).
// 1e-3 W gives 0.046 °C there, and 0.01 W 0.44 °C.
const leakTol = 5e-4

// leakTerm makes a solve's block powers a function of its die
// temperatures: each block draws static·model.Scale(T) + dynamic watts at
// its mean die temperature T. solveCoupled re-derives them every pass, so
// one fixed point converges the field, the flux and the block powers.
type leakTerm struct {
	model power.LeakageModel
	tol   float64 // the power half of the stop test (W); see leakTol
	blks  []leakBlock
}

type leakBlock struct {
	name            string
	frac            []float64 // coverage of the block per grid cell
	static, dynamic float64
	next            float64 // power re-derived from the latest pass (W)
}

// newLeakTerm returns the leakage term of a package state and the block
// powers a solve starts from: every block at its reference-temperature
// power.
func (ses *Session) newLeakTerm(st power.PackageState, leak power.LeakageModel, tol float64) (*leakTerm, map[string]float64, error) {
	s := ses.sys
	if s.Power == nil {
		return nil, nil, fmt.Errorf("cosim: system has no power model")
	}
	if err := leak.Validate(); err != nil {
		return nil, nil, err
	}
	static, dynamic := s.Power.SplitBlockPowers(st)
	lk := &leakTerm{model: leak, tol: tol}
	bp := make(map[string]float64, len(static))
	// Rasterization order, never map order, keeps repeated solves
	// bit-identical.
	for _, name := range s.coverage.Blocks() {
		if _, ok := static[name]; !ok {
			continue // an unpowered block (the reserved core-grid slots)
		}
		lk.blks = append(lk.blks, leakBlock{name: name, frac: s.coverage.BlockFraction(name), static: static[name], dynamic: dynamic[name]})
		bp[name] = static[name] + dynamic[name]
	}
	return lk, bp, nil
}

// rederive sets every block's next power from the pass's die
// temperatures and returns the largest change against bp, the powers the
// pass was solved with.
func (lk *leakTerm) rederive(die []float64, bp map[string]float64) float64 {
	var maxDelta float64
	for i := range lk.blks {
		b := &lk.blks[i]
		var t float64
		for c, f := range b.frac {
			if f != 0 {
				t += f * die[c]
			}
		}
		b.next = b.static*lk.model.Scale(t) + b.dynamic
		maxDelta = math.Max(maxDelta, math.Abs(b.next-bp[b.name]))
	}
	return maxDelta
}

// apply writes the re-derived powers into bp for the next pass.
func (lk *leakTerm) apply(bp map[string]float64) {
	for _, b := range lk.blks {
		bp[b.name] = b.next
	}
}

// SolveSteadyLeakage computes the coupled steady state with each block's
// static power scaled by its own mean die temperature; it requires the
// Xeon power model. The block powers are one more unknown of the coupling
// fixed point (see leakTerm). They start at the reference temperature on
// every solve; the field and flux are warm-carried as for
// SolveSteadyPower. BlockPower and TotalPowerW hold the leakage-inclusive
// powers of the returned field. A solve that has not settled after
// maxOuter passes, thermal runaway included, fails with an error wrapping
// linalg.ErrNotConverged and drops the warm-start carry.
func (ses *Session) SolveSteadyLeakage(ctx context.Context, st power.PackageState, op thermosyphon.Operating, leak power.LeakageModel) (*Result, error) {
	lk, bp, err := ses.newLeakTerm(st, leak, leakTol)
	if err != nil {
		return nil, err
	}
	return ses.solveCoupled(ctx, bp, op, outerTol, cgForcing, maxOuter, lk)
}
