package cosim

import (
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/thermosyphon"
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

	leak := power.DefaultLeakage()
	leak.RefC = 40 // the blade runs above 40 °C → leakage adds power
	res, err := sys.NewSession(CarryWarmStart(false)).SolveSteadyLeakage(nil, st, op, leak)
	if err != nil {
		t.Fatal(err)
	}
	if res.LeakageExtraW <= 0 {
		t.Fatalf("expected extra leakage power, got %.2f W", res.LeakageExtraW)
	}
	die, _ := sys.DieStats(&res.Result)
	if die.MaxC <= baseDie.MaxC {
		t.Fatalf("leakage-coupled die %.2f should exceed uncoupled %.2f", die.MaxC, baseDie.MaxC)
	}
	if res.LeakageIterations < 2 {
		t.Fatal("coupling should iterate")
	}
	if len(res.BlockTempC) == 0 {
		t.Fatal("missing block temperatures")
	}
	// Cores must be hotter than the LLC in the block-temp view.
	if res.BlockTempC["Core2"] <= res.BlockTempC["LLC"] {
		t.Fatal("active core should be hotter than LLC")
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
	if math.Abs(res.LeakageExtraW) > 1e-9 {
		t.Fatalf("zero-beta leakage added %.3f W", res.LeakageExtraW)
	}
}

func TestLeakageValidation(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	bad := power.LeakageModel{BetaPerC: 0.5, RefC: 60}
	if _, err := sys.NewSession(CarryWarmStart(false)).SolveSteadyLeakage(nil, fullLoadState(2), thermosyphon.DefaultOperating(), bad); err == nil {
		t.Fatal("invalid model must error")
	}
}
