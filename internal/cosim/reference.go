package cosim

import (
	"context"
	"fmt"

	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// referenceCoreDynW is the dynamic power of each core in the reference
// load (W, on top of the POLL baseline at FMax): every core busy at the
// top P-state at twice the largest per-core dynamic power of the
// workload table (x264, 3 W), with the uncore at 2.2 GHz and the LLC at
// 0.8 activity: 103.7 W in all, above every full-load workload
// (58–75 W). Measured on the 91 coarse served proposals of
// TestInexactInnerSolvesAccuracy with MG-PCG, cold solves from it take
// 6.0 passes and 22.9 CG iterations (9 and 31 from the projected die
// power), with the die hot spot at most 1.2e-3 °C from the tight
// reference. A lighter reference, 8 × 3 W (80 W), starts closer and
// takes 4.7 passes, but its solves stop with the hot spot up to
// 2.3e-3 °C off, past that test's 2e-3 °C bound.
const referenceCoreDynW = 6.0

// referenceUniformW is the reference load of a System without the Xeon
// power model: this many watts spread uniformly over the die blocks.
const referenceUniformW = 100.0

// referenceLoad returns the block powers of the System's reference load.
// It depends only on the System's floorplan and power model.
func (s *System) referenceLoad() map[string]float64 {
	if s.Power != nil {
		st := power.PackageState{Freq: power.FMax, UncoreFreq: 2.2, LLC: 0.8}
		for i := range st.Cores {
			st.Cores[i] = power.CoreLoad{Active: true, DynWatts: referenceCoreDynW}
		}
		return s.Power.BlockPowers(st)
	}
	bp := make(map[string]float64, len(s.FP.Blocks))
	area := s.FP.CoveredArea()
	for _, b := range s.FP.Blocks {
		bp[b.Name] = referenceUniformW * b.Rect.Area() / area
	}
	return bp
}

// referenceFlux returns the System's reference flux: the converged top
// flux per cell of the reference load (referenceLoad) at the default
// operating point with the System's own design, divided by the load's
// total power. A cold solve starts from its own total power times this
// shape (see innerForcing).
//
// The first caller computes it, on ses's buffers, by a production-
// tolerance coupled solve that itself starts from the projected die
// power, always on MG-PCG. It is a pure function of the System: the
// session's design override, solver, thread count and warm state play
// no part, so every session on the System, and every System built the
// same way, seeds its cold solves with the same bits. Concurrent callers
// wait for the first. A failed or cancelled reference solve stores
// nothing, and the next caller tries again.
func (s *System) referenceFlux(ctx context.Context, ses *Session) ([]float64, error) {
	s.refMu.Lock()
	defer s.refMu.Unlock()
	if s.refFlux != nil {
		return s.refFlux, nil
	}
	solver := ses.ws.Solver()
	ses.ws.SetSolver(thermal.SolverMGPCG)
	r, err := ses.couple(ctx, &s.Design, s.referenceLoad(), thermosyphon.DefaultOperating(),
		outerTol, cgForcing, maxOuter, nil, nil)
	ses.ws.SetSolver(solver)
	// The reference is no solve of the session's: nothing of it carries
	// into the next one.
	ses.warm = false
	if err != nil {
		return nil, fmt.Errorf("cosim: reference solve: %w", err)
	}
	flux := make([]float64, len(ses.qNew))
	for i, q := range ses.qNew {
		flux[i] = q / r.TotalPowerW
	}
	s.refFlux = flux
	return flux, nil
}
