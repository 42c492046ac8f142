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

func TestLeakageModelScale(t *testing.T) {
	l := power.DefaultLeakage()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := l.Scale(l.RefC); math.Abs(s-1) > 1e-12 {
		t.Fatalf("scale at reference = %v", s)
	}
	if l.Scale(l.RefC+55) < 1.9 || l.Scale(l.RefC+55) > 2.1 {
		t.Fatalf("leakage should double per 55 °C, got %v", l.Scale(l.RefC+55))
	}
	if l.Scale(500) != 4 {
		t.Fatal("hot clamp missing")
	}
	if l.Scale(-500) != 0.25 {
		t.Fatal("cold clamp missing")
	}
	bad := power.LeakageModel{BetaPerC: 1, RefC: 60}
	if err := bad.Validate(); err == nil {
		t.Fatal("absurd beta must fail validation")
	}
}

func TestSplitBlockPowersConsistent(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	st := fullLoadState(2.2)
	static, dynamic := sys.Power.SplitBlockPowers(st)
	full := sys.Power.BlockPowers(st)
	for name, p := range full {
		if got := static[name] + dynamic[name]; math.Abs(got-p) > 1e-9 {
			t.Fatalf("%s: split %.3f+%.3f ≠ %.3f", name, static[name], dynamic[name], p)
		}
		if static[name] < 0 || dynamic[name] < -1e-12 {
			t.Fatalf("%s: negative split (%.3f, %.3f)", name, static[name], dynamic[name])
		}
	}
}

func TestLeakageCouplingRaisesPowerAndTemps(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	st := fullLoadState(2.2)
	op := thermosyphon.DefaultOperating()
	base, err := sys.NewSession().SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	baseDie, _ := sys.DieStats(base)
	baseW := base.TotalPowerW

	leak := power.DefaultLeakage()
	leak.RefC = 40 // the blade runs above 40 °C → leakage adds power
	res, err := sys.NewSession(CarryWarmStart(false)).SolveSteadyLeakage(nil, st, op, leak)
	if err != nil {
		t.Fatal(err)
	}
	if extra := res.TotalPowerW - baseW; extra <= 0 {
		t.Fatalf("expected extra leakage power, got %.2f W", extra)
	}
	die, _ := sys.DieStats(res)
	if die.MaxC <= baseDie.MaxC {
		t.Fatalf("leakage-coupled die %.2f should exceed uncoupled %.2f", die.MaxC, baseDie.MaxC)
	}
	ref := sys.Power.BlockPowers(st)
	if res.BlockPower["Core2"] <= ref["Core2"] {
		t.Fatalf("Core2 power %.3f W not above its reference %.3f W", res.BlockPower["Core2"], ref["Core2"])
	}
	temps, err := sys.BlockTemps(res)
	if err != nil {
		t.Fatal(err)
	}
	blockT := make(map[string]float64, len(temps))
	for _, bt := range temps {
		blockT[bt.Name] = bt.MeanC
	}
	// Cores must be hotter than the LLC in the block-temp view.
	if blockT["Core2"] <= blockT["LLC"] {
		t.Fatal("active core should be hotter than LLC")
	}
}

// TestLeakageAccuracy holds the fused leakage fixed point to the bound
// TestCouplingFaultGrid holds plain coupled solves to: every PARSEC
// benchmark at full load, cold, at three water operating points, plus
// blackscholes and ferret on the pump:0.6,fouling:0.6 derated design at
// the supply its loop converges to in the faults sweep (ferret is the
// hottest blade that fleet leaves unthrottled). Each die θmax
// must land within 0.03 °C of a tight reference (outer tolerance 1e-7,
// every pass at thermal.SteadyTol, power tolerance 1e-7 W). Under -race
// it covers only the first benchmark of each group.
func TestLeakageAccuracy(t *testing.T) {
	const bound = 0.03 // °C
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	leak := power.DefaultLeakage()
	full := workload.Config{Cores: 8, Threads: 8, Freq: power.FMax}
	m := core.Mapping{ActiveCores: []int{0, 1, 2, 3, 4, 5, 6, 7}, IdleState: power.POLL, Config: full}
	sc, err := faults.Parse("pump:0.6,fouling:0.6")
	if err != nil {
		t.Fatal(err)
	}
	healthy := []thermosyphon.Operating{
		{WaterInC: 27, WaterFlowKgH: 7},
		{WaterInC: 33, WaterFlowKgH: 7},
		{WaterInC: 40, WaterFlowKgH: 4},
	}
	hot := make([]workload.Benchmark, 2)
	for i, name := range []string{"blackscholes", "ferret"} {
		if hot[i], err = workload.ByName(name); err != nil {
			t.Fatal(err)
		}
	}
	groups := []struct {
		design  thermosyphon.Design
		benches []workload.Benchmark
		ops     []thermosyphon.Operating
	}{
		{sys.Design, workload.All(), healthy},
		{sc.ApplyDesign(sys.Design, "", ""), hot, []thermosyphon.Operating{{WaterInC: 34.87, WaterFlowKgH: 2.8}}},
	}
	var worst float64
	var passes, solves int
	for _, g := range groups {
		benches := g.benches
		if raceEnabled {
			benches = benches[:1]
		}
		ref := sys.NewSession(CarryWarmStart(false), WithDesign(g.design), WithSolver(thermal.SolverMGPCG))
		cold := sys.NewSession(CarryWarmStart(false), WithDesign(g.design))
		for _, b := range benches {
			st := core.PackageState(b, m)
			for _, op := range g.ops {
				lk, bp, err := ref.newLeakTerm(st, leak, 1e-7)
				if err != nil {
					t.Fatal(err)
				}
				r, err := ref.solveCoupled(nil, bp, op, 1e-7, 0, refPasses, lk)
				if err != nil {
					t.Fatalf("%s %+v: reference: %v", b.Name, op, err)
				}
				want, err := sys.DieStats(r)
				if err != nil {
					t.Fatal(err)
				}
				r, err = cold.SolveSteadyLeakage(nil, st, op, leak)
				if err != nil {
					t.Fatalf("%s %+v: %v", b.Name, op, err)
				}
				got, err := sys.DieStats(r)
				if err != nil {
					t.Fatal(err)
				}
				passes += r.Iterations
				solves++
				if e := math.Abs(got.MaxC - want.MaxC); e > bound {
					t.Errorf("%s %+v: die max %.4f °C, reference %.4f °C (|Δ| %.2e > %g)",
						b.Name, op, got.MaxC, want.MaxC, e, bound)
				} else if e > worst {
					worst = e
				}
			}
		}
	}
	t.Logf("%d leakage solves: worst |Δ die θmax| %.2e °C, %d coupling passes", solves, worst, passes)
}

// TestLeakageBudgetExhausted: a leakage solve that has not settled when
// its pass budget runs out fails with an error wrapping
// linalg.ErrNotConverged and drops the warm-start carry, so the session's
// next solve starts cold.
func TestLeakageBudgetExhausted(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	st := fullLoadState(2.2)
	leak := power.DefaultLeakage()
	ses := sys.NewSession()
	if _, err := ses.SolveSteadyLeakage(nil, st, op, leak); err != nil {
		t.Fatal(err)
	}
	lk, bp, err := ses.newLeakTerm(st, leak, leakTol)
	if err != nil {
		t.Fatal(err)
	}
	// Even from the carried field, the first pass moves the block powers
	// off their reference-temperature values by watts, not milliwatts.
	_, err = ses.solveCoupled(nil, bp, op, outerTol, cgForcing, 1, lk)
	if !errors.Is(err, linalg.ErrNotConverged) {
		t.Fatalf("budget-exhausted leakage solve returned %v, want an error wrapping ErrNotConverged", err)
	}
	if ses.warm {
		t.Fatal("budget-exhausted leakage solve left the warm-start carry armed")
	}
	got, err := ses.SolveSteadyLeakage(nil, st, op, leak)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.NewSession(CarryWarmStart(false)).SolveSteadyLeakage(nil, st, op, leak)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations || got.TotalPowerW != want.TotalPowerW {
		t.Fatalf("solve after the failure is not cold: %d passes / %.6f W, cold %d / %.6f W",
			got.Iterations, got.TotalPowerW, want.Iterations, want.TotalPowerW)
	}
}

func TestLeakageCoupledColdReferenceIsNeutral(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	st := fullLoadState(1.5)
	leak := power.LeakageModel{BetaPerC: 0, RefC: 60} // no sensitivity
	res, err := sys.NewSession(CarryWarmStart(false)).SolveSteadyLeakage(nil, st, thermosyphon.DefaultOperating(), leak)
	if err != nil {
		t.Fatal(err)
	}
	if extra := res.TotalPowerW - sys.Power.TotalPower(st); math.Abs(extra) > 1e-9 {
		t.Fatalf("zero-beta leakage added %.3f W", extra)
	}
}

func TestLeakageValidation(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	bad := power.LeakageModel{BetaPerC: 0.5, RefC: 60}
	if _, err := sys.NewSession(CarryWarmStart(false)).SolveSteadyLeakage(nil, fullLoadState(2), thermosyphon.DefaultOperating(), bad); err == nil {
		t.Fatal("invalid model must error")
	}
}
