package cosim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/linalg"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// TestCouplingFaultGrid runs the undamped coupling loop where the boiling
// side is least forgiving: every PARSEC benchmark at full load, cold, on
// coarse Jacobi-CG, under four heavy cooling faults and three water
// operating points. Every solve must converge within maxOuter passes and
// land within 0.03 °C of a tightly converged reference fixed point
// (outer tolerance 1e-6, every pass to thermal.SteadyTol). The 0.6-mixed
// loop this replaced reached 2.3e-2 °C here in at most 24 passes; the
// undamped loop reaches 2.0e-2 °C in at most 14. The test is serial, so
// the race detector has nothing to find in it; under -race it covers only
// the first benchmark, which keeps the package within the default test
// timeout.
func TestCouplingFaultGrid(t *testing.T) {
	const bound = 0.03 // °C
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	full := workload.Config{Cores: 8, Threads: 8, Freq: power.FMax}
	m := core.Mapping{ActiveCores: []int{0, 1, 2, 3, 4, 5, 6, 7}, IdleState: power.POLL, Config: full}
	ops := []thermosyphon.Operating{
		thermosyphon.DefaultOperating(),
		{WaterInC: 40, WaterFlowKgH: 3},
		{WaterInC: 60, WaterFlowKgH: 1},
	}
	benches := workload.All()
	if raceEnabled {
		benches = benches[:1]
	}
	for _, spec := range []string{"dryout:0.95", "fouling:0.95", "htc:0.95", "dryout:0.9,fouling:0.9,htc:0.9"} {
		sc, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		d := sc.ApplyDesign(sys.Design, "", "")
		// The reference solver only changes how the tight solves get
		// there; multigrid reaches 1e-10 in far fewer applies.
		ref := sys.NewSession(CarryWarmStart(false), WithDesign(d), WithSolver(thermal.SolverMGPCG))
		cold := sys.NewSession(CarryWarmStart(false), WithDesign(d))
		var worst float64
		var most int
		for _, b := range benches {
			bp := sys.Power.BlockPowers(core.PackageState(b, m))
			for _, op := range ops {
				r, err := ref.solveCoupled(nil, bp, op, 1e-6, 0, refPasses, nil)
				if err != nil {
					t.Fatalf("%s %s %+v: reference: %v", spec, b.Name, op, err)
				}
				want, err := sys.DieStats(r)
				if err != nil {
					t.Fatal(err)
				}
				r, err = cold.SolveSteadyPower(nil, bp, op)
				if err != nil {
					t.Fatalf("%s %s %+v: %v", spec, b.Name, op, err)
				}
				got, err := sys.DieStats(r)
				if err != nil {
					t.Fatal(err)
				}
				if e := math.Abs(got.MaxC - want.MaxC); e > bound {
					t.Errorf("%s %s %+v: die max %.4f °C, reference %.4f °C (|Δ| %.2e > %g)",
						spec, b.Name, op, got.MaxC, want.MaxC, e, bound)
				} else if e > worst {
					worst = e
				}
				if r.Iterations > most {
					most = r.Iterations
				}
			}
		}
		t.Logf("%s: worst |Δ die θmax| %.2e °C, at most %d passes", spec, worst, most)
	}
}

// TestCouplingPassBudgetExhausted: a coupled solve that has not met the
// outer tolerance when its pass budget runs out fails with an error
// wrapping linalg.ErrNotConverged and drops the warm-start carry, instead
// of returning the last iterate as if it had converged.
func TestCouplingPassBudgetExhausted(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	ses := sys.NewSession()
	if _, err := ses.SolveSteadyPower(nil, sys.Power.BlockPowers(fullLoadState(2.2)), op); err != nil {
		t.Fatal(err)
	}
	// Doubling the dynamic power moves the flux by far more than the 1 %
	// outer tolerance, so one pass cannot converge even from the carry.
	hot := sys.Power.BlockPowers(fullLoadState(4.4))
	_, err = ses.solveCoupled(nil, hot, op, outerTol, cgForcing, 1, nil)
	if !errors.Is(err, linalg.ErrNotConverged) {
		t.Fatalf("budget-exhausted solve returned %v, want an error wrapping ErrNotConverged", err)
	}
	if ses.warm {
		t.Fatal("budget-exhausted solve left the warm-start carry armed")
	}
	// The session recovers: the next solve starts cold and converges.
	if _, err := ses.SolveSteadyPower(nil, hot, op); err != nil {
		t.Fatal(err)
	}
}

// TestWarmResolveTripwire pins the cost of the re-solve a thermservd
// lease or the datacenter fixed point makes most: the same proposal one
// kelvin warmer, warm-carried from its own converged state, over the 91
// served proposals. Ten of them need a second pass, because one kelvin
// moves their flux distribution by more than 1 %; the rest finish in one.
// Counts are deterministic, so the bound cannot flake.
func TestWarmResolveTripwire(t *testing.T) {
	const maxMeanPasses = 1.12
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ses := sys.NewSession()
	var passes int
	all := servedProposals()
	for _, p := range all {
		bp := sys.Power.BlockPowers(p.st)
		ses.SwapCarry(&Carry{})
		if _, err := ses.SolveSteadyPower(nil, bp, p.op); err != nil {
			t.Fatal(err)
		}
		op := p.op
		op.WaterInC++
		r, err := ses.SolveSteadyPower(nil, bp, op)
		if err != nil {
			t.Fatal(err)
		}
		passes += r.Iterations
	}
	if mean := float64(passes) / float64(len(all)); mean > maxMeanPasses {
		t.Fatalf("+1 K warm re-solves average %.3f passes, want ≤ %g", mean, maxMeanPasses)
	}
}

// TestCouplingSafeguard: a warm-carried re-solve after a 30 % load step
// starts from the flux of the old load, and its flux change grows from
// the first pass to the second (0.174 → 0.227 W per cell) while the
// boiling side catches up with the new power. The safeguard must switch
// that solve to damped steps, and the solve must still converge to the
// tight reference fixed point.
func TestCouplingSafeguard(t *testing.T) {
	const bound = 2e-3 // °C, as TestInexactInnerSolvesAccuracy
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	load := func(dynW float64) map[string]float64 {
		st := power.PackageState{Freq: power.FMid, UncoreFreq: 2.0, LLC: 0.5}
		for i := range st.Cores {
			st.Cores[i] = power.CoreLoad{Active: true, DynWatts: dynW}
		}
		return sys.Power.BlockPowers(st)
	}
	op := thermosyphon.Operating{WaterInC: 27, WaterFlowKgH: 14}
	ses := sys.NewSession()
	if _, err := ses.SolveSteadyPower(nil, load(4), op); err != nil {
		t.Fatal(err)
	}
	if ses.safeguards != 0 {
		t.Fatalf("cold solve fired the safeguard %d times", ses.safeguards)
	}
	step := load(4 * 1.3)
	r, err := ses.SolveSteadyPower(nil, step, op)
	if err != nil {
		t.Fatal(err)
	}
	if ses.safeguards != 1 {
		t.Fatalf("warm load-step re-solve fired the safeguard %d times, want 1", ses.safeguards)
	}
	got, err := sys.DieStats(r)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sys.NewSession(CarryWarmStart(false)).solveCoupled(nil, step, op, 1e-6, 0, refPasses, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.DieStats(ref)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(got.MaxC - want.MaxC); e > bound {
		t.Fatalf("safeguarded solve: die max %.4f °C, reference %.4f °C (|Δ| %.2e > %g)", got.MaxC, want.MaxC, e, bound)
	}
	t.Logf("safeguarded solve: %d passes, |Δ die θmax| %.2e °C", r.Iterations, math.Abs(got.MaxC-want.MaxC))
}
