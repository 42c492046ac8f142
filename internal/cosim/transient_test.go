package cosim

import (
	"testing"

	"repro/internal/power"
	"repro/internal/thermosyphon"
)

func TestTransientWarmsTowardSteady(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := fullLoadState(2.2)
	op := thermosyphon.DefaultOperating()
	steady, err := sys.NewSession().SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	steadyDie, _ := sys.DieStats(steady)

	sim, err := sys.NewSession().Transient(op, 30)
	if err != nil {
		t.Fatal(err)
	}
	bp := sys.Power.BlockPowers(st)
	prev := 0.0
	for i := 0; i < 60; i++ {
		if err := sim.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
		cur, err := sim.DieMax()
		if err != nil {
			t.Fatal(err)
		}
		// The quasi-static boundary lags one step behind the field, so a
		// slight overshoot-and-settle is expected; forbid real regressions.
		if cur < prev-0.6 {
			t.Fatalf("warm-up regressed at step %d: %.2f < %.2f", i, cur, prev)
		}
		prev = cur
	}
	// After 15 simulated seconds the transient should be within a couple
	// of degrees of the steady solution.
	if diff := steadyDie.MaxC - prev; diff > 3 || diff < -3 {
		t.Fatalf("transient %.1f vs steady %.1f", prev, steadyDie.MaxC)
	}
	if sim.Time() < 14.9 || sim.Time() > 15.1 {
		t.Fatalf("time = %v", sim.Time())
	}
}

func TestTransientValidation(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	if _, err := sys.NewSession().Transient(thermosyphon.Operating{}, 30); err == nil {
		t.Fatal("invalid operating point must error")
	}
	sim, err := sys.NewSession().Transient(thermosyphon.DefaultOperating(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(-1, nil); err == nil {
		t.Fatal("negative step must error")
	}
	if err := sim.Step(0.25, map[string]float64{"bogus": 1}); err == nil {
		t.Fatal("unknown block must error")
	}
}

func TestTransientIdleStaysNearWater(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	sim, err := sys.NewSession().Transient(thermosyphon.DefaultOperating(), 30)
	if err != nil {
		t.Fatal(err)
	}
	var st power.PackageState
	st.Freq = power.FMin
	st.UncoreFreq = power.UncoreFreqMin
	for i := range st.Cores {
		st.Cores[i] = power.CoreLoad{Idle: power.C6}
	}
	bp := sys.Power.BlockPowers(st)
	for i := 0; i < 40; i++ {
		if err := sim.Step(0.5, bp); err != nil {
			t.Fatal(err)
		}
	}
	max, _ := sim.DieMax()
	// A nearly idle package settles close to the water temperature.
	if max < 28 || max > 45 {
		t.Fatalf("idle die settled at %.1f °C", max)
	}
	if sim.Syphon() == nil || sim.Field() == nil {
		t.Fatal("accessors broken")
	}
	if sim.TCase() <= 0 {
		t.Fatal("TCase broken")
	}
}

// TestTransientHonorsSessionDesign: a sim started on a WithDesign session
// steps on the session's design, bit-identically to a sim on a system
// built with that design, and not on the system's healthy one.
func TestTransientHonorsSessionDesign(t *testing.T) {
	healthy, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := coarseConfig()
	cfg.Design.FillingRatio = 0.2
	cfg.Design.CondenserUA = 5
	degraded, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	got, err := healthy.NewSession(WithDesign(cfg.Design)).Transient(op, 30)
	if err != nil {
		t.Fatal(err)
	}
	want, err := degraded.NewSession().Transient(op, 30)
	if err != nil {
		t.Fatal(err)
	}
	bp := healthy.Power.BlockPowers(fullLoadState(2.2))
	for i := 0; i < 40; i++ {
		if err := got.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
		if err := want.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range want.Field().T {
		if got.Field().T[i] != v {
			g, _ := got.DieMax()
			w, _ := want.DieMax()
			t.Fatalf("WithDesign sim differs from the degraded system at cell %d (die θmax %.2f vs %.2f °C)", i, g, w)
		}
	}
}
