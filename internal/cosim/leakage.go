package cosim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// LeakageResult extends Result with the leakage-coupling diagnostics.
type LeakageResult struct {
	Result
	// LeakageIterations counts the outer power↔temperature iterations.
	LeakageIterations int
	// LeakageExtraW is the additional static power versus the uncoupled
	// reference-temperature solution.
	LeakageExtraW float64
	// BlockTempC is the converged mean die temperature per block.
	BlockTempC map[string]float64
}

// SolveSteadyLeakage computes the coupled steady state with
// temperature-dependent leakage: the static share of each block's power is
// scaled by the block's own mean die temperature, iterated to a fixed
// point. It requires the Xeon power model. The inner power↔temperature
// iterations reuse the session workspace, and with the warm-start carry
// each re-solve starts from the previous converged field, so the leakage
// fixed point costs little more than one solve. Cancellation propagates
// through the inner SolveSteadyPower calls; a nil ctx means "not
// cancellable".
func (ses *Session) SolveSteadyLeakage(ctx context.Context, st power.PackageState, op thermosyphon.Operating, leak power.LeakageModel) (*LeakageResult, error) {
	s := ses.sys
	if s.Power == nil {
		return nil, fmt.Errorf("cosim: system has no power model")
	}
	if err := leak.Validate(); err != nil {
		return nil, err
	}
	static, dynamic := s.Power.SplitBlockPowers(st)
	// Iterate blocks in sorted order wherever floats accumulate: map order
	// is random and float addition is not associative, so a fixed order is
	// what keeps repeated solves bit-identical.
	names := make([]string, 0, len(static))
	for name := range static {
		names = append(names, name)
	}
	sort.Strings(names)
	var baseStatic float64
	for _, name := range names {
		baseStatic += static[name]
	}

	// Start from the reference-temperature power map.
	bp := make(map[string]float64, len(static))
	for _, name := range names {
		bp[name] = static[name] + dynamic[name]
	}

	var (
		out  LeakageResult
		prev = math.Inf(1)
		grew bool // prev exceeded the change before it
	)
	const maxIter = 25
	for it := 0; it < maxIter; it++ {
		res, err := ses.SolveSteadyPower(ctx, bp, op)
		if err != nil {
			return nil, err
		}
		temps, err := res.Field.LayerByName(thermal.LayerDie)
		if err != nil {
			return nil, ses.fail(err)
		}
		blockT := make(map[string]float64, len(static))
		var maxDelta, scaledStatic float64
		for _, name := range names {
			frac := s.coverage.BlockFraction(name)
			var t float64
			for c, f := range frac {
				if f != 0 {
					t += f * temps[c]
				}
			}
			blockT[name] = t
			newP := static[name]*leak.Scale(t) + dynamic[name]
			if d := math.Abs(newP - bp[name]); d > maxDelta {
				maxDelta = d
			}
			bp[name] = newP
			scaledStatic += static[name] * leak.Scale(t)
		}
		out.Result = *res
		out.LeakageIterations = it + 1
		out.LeakageExtraW = scaledStatic - baseStatic
		out.BlockTempC = blockT
		if maxDelta < 0.01 {
			return &out, nil
		}
		// Thermal runaway shows as a power change that keeps growing, so
		// one jump does not count. A warm coupled solve that stops after
		// one pass returns a field one boundary update behind; the change
		// can dip at that iteration and jump back by more than 1.5× at the
		// next while the fixed point is still converging.
		if maxDelta > prev*1.5 && grew && it > 3 {
			// The carried field belongs to a diverging operating point;
			// invalidate it so a retry (e.g. after throttling) starts cold.
			return nil, ses.fail(fmt.Errorf("cosim: leakage coupling diverging (Δ %.2f W after %d iterations) — thermal runaway", maxDelta, it+1))
		}
		grew = maxDelta > prev
		prev = maxDelta
	}
	return &out, nil
}
