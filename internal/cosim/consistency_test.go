package cosim

import (
	"math"
	"testing"

	"repro/internal/thermosyphon"
)

// TestResolutionConsistency: the coupled solution must be stable under
// grid refinement — coarse and medium die hot spots within a small band.
func TestResolutionConsistency(t *testing.T) {
	st := fullLoadState(2.2)
	op := thermosyphon.DefaultOperating()
	solve := func(nx, ny int) float64 {
		cfg := DefaultConfig()
		cfg.Stack.NX, cfg.Stack.NY = nx, ny
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.NewSession().SolveSteady(nil, st, op)
		if err != nil {
			t.Fatal(err)
		}
		die, err := sys.DieStats(res)
		if err != nil {
			t.Fatal(err)
		}
		return die.MaxC
	}
	coarse := solve(19, 15)
	medium := solve(38, 30)
	if d := math.Abs(coarse - medium); d > 3 {
		t.Fatalf("die max moved %.2f °C between resolutions (%.1f vs %.1f)", d, coarse, medium)
	}
}

// TestDeterminism: two identical solves produce identical results — no
// hidden randomness anywhere in the pipeline.
func TestDeterminism(t *testing.T) {
	st := fullLoadState(2.0)
	op := thermosyphon.DefaultOperating()
	run := func() (float64, float64, int) {
		sys, err := NewSystem(coarseConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.NewSession().SolveSteady(nil, st, op)
		if err != nil {
			t.Fatal(err)
		}
		die, _ := sys.DieStats(res)
		return die.MaxC, res.Syphon.Condenser.TsatC, res.Iterations
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	// Block powers are accumulated from Go maps, so summation order (and
	// hence the last few ulps) varies run to run; anything beyond ulp
	// noise would indicate real nondeterminism.
	if math.Abs(a1-a2) > 1e-9 || math.Abs(b1-b2) > 1e-9 || c1 != c2 {
		t.Fatalf("non-deterministic: (%v,%v,%d) vs (%v,%v,%d)", a1, b1, c1, a2, b2, c2)
	}
}

// TestIdlePackageNearWater: a fully parked package approaches the water
// temperature from above.
func TestIdlePackageNearWater(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	var st = fullLoadState(0)
	for i := range st.Cores {
		st.Cores[i].Active = false
		st.Cores[i].Idle = 4 // C6
	}
	st.LLC = 0
	st.UncoreFreq = 1.2
	res, err := sys.NewSession().SolveSteady(nil, st, thermosyphon.DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	die, _ := sys.DieStats(res)
	if die.MaxC < 30 || die.MaxC > 42 {
		t.Fatalf("idle die %.1f °C should hover just above the 30 °C water", die.MaxC)
	}
}
