package datacenter

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/power"
	"repro/internal/thermal"
)

// solveOnce builds a solver with the options, applies the test seams to
// it, runs one nominal solve and tears it down.
func solveOnce(t *testing.T, topo Topology, opt Options, seams ...func(*Solver)) *Report {
	t.Helper()
	sys := testSystem(t)
	s, err := New(sys, topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, seam := range seams {
		seam(s)
	}
	rep, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFaultedFleetHotterThanHealthy: a pump+fouling scenario must converge
// to a hotter fleet than the healthy baseline and be named in the report.
func TestFaultedFleetHotterThanHealthy(t *testing.T) {
	topo, err := Uniform(2, 3, 1, testLoop(), []power.PackageState{testState(4.5, 8)})
	if err != nil {
		t.Fatal(err)
	}
	healthy := solveOnce(t, topo, Options{})
	sc := faults.Scenario{Name: "pump+fouling", Faults: []faults.Fault{
		{Kind: faults.PumpDegradation, Severity: 0.5},
		{Kind: faults.CondenserFouling, Severity: 0.5},
	}}
	faulted := solveOnce(t, topo, Options{Scenario: &sc})
	if !healthy.Converged || !faulted.Converged {
		t.Fatalf("converged: healthy %v, faulted %v", healthy.Converged, faulted.Converged)
	}
	if faulted.Scenario != "pump+fouling" {
		t.Errorf("report scenario = %q", faulted.Scenario)
	}
	if faulted.MaxDieC <= healthy.MaxDieC {
		t.Fatalf("faulted fleet not hotter: %.2f vs healthy %.2f °C", faulted.MaxDieC, healthy.MaxDieC)
	}
}

// TestBladeFaultSplitsClass: a blade-scoped fault must split its blade
// into its own class and only heat that blade.
func TestBladeFaultSplitsClass(t *testing.T) {
	topo, err := Uniform(2, 2, 1, testLoop(), []power.PackageState{testState(4.5, 8)})
	if err != nil {
		t.Fatal(err)
	}
	healthy := solveOnce(t, topo, Options{})
	if healthy.Classes != 1 {
		t.Fatalf("healthy identical fleet has %d classes, want 1", healthy.Classes)
	}
	sc := faults.Scenario{Name: "one-blade", Faults: []faults.Fault{
		{Kind: faults.BladeCoolingLoss, Severity: 0.5, Blade: "r0b1"},
	}}
	faulted := solveOnce(t, topo, Options{Scenario: &sc})
	if faulted.Classes != 2 {
		t.Fatalf("blade-scoped fault produced %d classes, want 2", faulted.Classes)
	}
	var hit, rest float64
	for _, b := range faulted.Blades {
		if b.Name == "r0b1" {
			hit = b.DieMaxC
		} else if b.DieMaxC > rest {
			rest = b.DieMaxC
		}
	}
	if hit <= rest {
		t.Fatalf("faulted blade r0b1 (%.2f °C) not hotter than the rest (%.2f °C)", hit, rest)
	}
}

// TestDegradedModeThrottlesToFeasible: when the converged TCASE exceeds
// the limit, the solver must step the offending blades down the DVFS
// ladder until the fleet is feasible again.
func TestDegradedModeThrottlesToFeasible(t *testing.T) {
	topo, err := Uniform(2, 2, 1, testLoop(), []power.PackageState{testState(4.5, 8)})
	if err != nil {
		t.Fatal(err)
	}
	healthy := solveOnce(t, topo, Options{})
	var t0 float64
	for _, b := range healthy.Blades {
		if b.TCaseC > t0 {
			t0 = b.TCaseC
		}
	}
	limit := t0 - 0.5 // infeasible at full speed, reachable one DVFS step down
	rep := solveOnce(t, topo, Options{}, tcaseLimit(limit))
	if !rep.Feasible() {
		t.Fatalf("fleet not throttled to feasibility: converged %v, %d infeasible", rep.Converged, len(rep.Infeasible))
	}
	if rep.ThrottledBlades == 0 {
		t.Fatal("no blades throttled despite the violated limit")
	}
	var counted int
	for _, b := range rep.Blades {
		if b.TCaseC > limit {
			t.Errorf("blade %s TCASE %.2f °C still over the %.2f °C limit", b.Name, b.TCaseC, limit)
		}
		if b.ThrottleSteps > 0 {
			counted++
		}
	}
	if counted != rep.ThrottledBlades {
		t.Errorf("ThrottledBlades %d inconsistent with %d per-blade rows", rep.ThrottledBlades, counted)
	}
	if rep.MaxThrottleSteps < 1 {
		t.Errorf("MaxThrottleSteps = %d", rep.MaxThrottleSteps)
	}
}

// TestDegradedModeThrottlesUnconvergedFleet: a fixed point that ends
// unconverged, as a fleet drifting into leakage runaway does, must still
// throttle its classes that are over the TCASE limit at the last iterate
// instead of reporting them at full speed.
func TestDegradedModeThrottlesUnconvergedFleet(t *testing.T) {
	topo, err := Uniform(1, 2, 1, testLoop(), []power.PackageState{testState(4.5, 8)})
	if err != nil {
		t.Fatal(err)
	}
	// One outer iteration from cold cannot meet the outer tolerance, so
	// the first fixed point ends unconverged.
	rep := solveOnce(t, topo, Options{}, tcaseLimit(1), func(s *Solver) { s.maxOuter = 1 })
	if rep.ThrottledBlades == 0 || rep.MaxThrottleSteps < 1 {
		t.Fatalf("unconverged fleet over the limit left unthrottled: %d throttled, %d max steps",
			rep.ThrottledBlades, rep.MaxThrottleSteps)
	}
}

// TestInfeasibleBladesNamed: an unreachable limit must exhaust the DVFS
// ladder and name every stuck blade with a diagnostic — not return an
// error, and not claim feasibility.
func TestInfeasibleBladesNamed(t *testing.T) {
	topo, err := Uniform(1, 2, 1, testLoop(), []power.PackageState{testState(4.5, 8)})
	if err != nil {
		t.Fatal(err)
	}
	rep := solveOnce(t, topo, Options{}, tcaseLimit(1)) // below the water temperature: unreachable
	if rep.Feasible() {
		t.Fatal("fleet claims feasibility under an unreachable limit")
	}
	if len(rep.Infeasible) != len(rep.Blades) {
		t.Fatalf("%d of %d blades named infeasible, want all", len(rep.Infeasible), len(rep.Blades))
	}
	for _, b := range rep.Infeasible {
		if b.Name == "" || b.Loop == "" {
			t.Errorf("infeasible blade row missing names: %+v", b)
		}
		if !strings.Contains(b.Reason, "TCASE") || !strings.Contains(b.Reason, "DVFS") {
			t.Errorf("reason %q does not explain the TCASE violation and the exhausted DVFS ladder", b.Reason)
		}
	}
}

// TestFaultedPooledByteIdentical: the determinism contract holds under
// composed fault scenarios and degraded-mode throttling — any workers ×
// threads split must reproduce the serial report exactly. The second
// scenario derates three thermosyphon designs, so classes of several
// designs share thread-teamed pooled sessions, two per design at 2×2.
func TestFaultedPooledByteIdentical(t *testing.T) {
	sys := testSystem(t)
	states := []power.PackageState{testState(4.5, 8), testState(3.5, 8), testState(2.5, 4)}
	topo, err := Uniform(2, 3, 2, testLoop(), states)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []faults.Scenario{
		{Name: "mixed", Faults: []faults.Fault{
			{Kind: faults.PumpDegradation, Severity: 0.6, Loop: "loop0"},
			{Kind: faults.CondenserFouling, Severity: 0.4},
			{Kind: faults.BladeCoolingLoss, Severity: 0.4, Blade: "r0b0"},
		}},
		{Name: "designs", Faults: []faults.Fault{
			{Kind: faults.PartialDryout, Severity: 0.5, Loop: "loop1"},
			{Kind: faults.HTCDrift, Severity: 0.5, Blade: "r0b1"},
			{Kind: faults.PumpDegradation, Severity: 0.4},
		}},
	} {
		var base *Report
		for _, split := range []struct{ workers, threads int }{{1, 1}, {4, 2}, {2, 2}} {
			s, err := New(sys, topo, Options{
				Solver:   thermal.SolverMGPCG,
				Workers:  split.workers,
				Threads:  split.threads,
				Scenario: &sc,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Solve(context.Background())
			s.Close()
			if err != nil {
				t.Fatalf("%s %dx%d: %v", sc.Name, split.workers, split.threads, err)
			}
			if base == nil {
				base = rep
				continue
			}
			if !reflect.DeepEqual(base, rep) {
				t.Fatalf("%s: pooled %d×%d faulted report differs from serial", sc.Name, split.workers, split.threads)
			}
		}
	}
}

// TestFailedBladesCounted: a blade whose class solve fails has no heat,
// so the IT power, the loop heats and the plant leave it out — and the
// report says how many blades it left out, fleet-wide and per loop.
func TestFailedBladesCounted(t *testing.T) {
	loop := testLoop()
	loop.PerBladeFlowKgH = 7
	// Round-robin states put one 12 W/core blade on loop0 and two on
	// loop1; under the pump fault their solves fail, the others solve.
	topo, err := Uniform(2, 3, 2, loop, []power.PackageState{testState(4.5, 8), testState(12, 8)})
	if err != nil {
		t.Fatal(err)
	}
	sc := faults.Scenario{Name: "pump", Faults: []faults.Fault{{Kind: faults.PumpDegradation, Severity: 0.6}}}
	rep := solveOnce(t, topo, Options{Scenario: &sc})
	perLoop := make([]int, len(rep.Loops))
	var failed int
	var it float64
	for _, b := range rep.Blades {
		if b.Failed {
			failed++
			perLoop[topo.Racks[b.Rack].Loop]++
			continue
		}
		it += b.HeatW
	}
	if failed == 0 || failed == len(rep.Blades) {
		t.Fatalf("%d of %d blades failed; the test needs some of each", failed, len(rep.Blades))
	}
	if rep.FailedBlades != failed {
		t.Fatalf("FailedBlades = %d, %d blade rows say Failed", rep.FailedBlades, failed)
	}
	if math.Abs(rep.ITPowerW-it) > 1e-9 {
		t.Fatalf("IT power %.6f W, the solved blades' heat %.6f W", rep.ITPowerW, it)
	}
	for l, lr := range rep.Loops {
		if lr.FailedBlades != perLoop[l] {
			t.Errorf("loop %s: FailedBlades = %d, want %d", lr.Name, lr.FailedBlades, perLoop[l])
		}
	}
	if perLoop[0] != 1 || perLoop[1] != 2 {
		t.Fatalf("failed blades per loop %v, want [1 2]", perLoop)
	}
}

// TestScenarioValidationAtNew: invalid fault parameters surface at
// construction, not mid-solve.
func TestScenarioValidationAtNew(t *testing.T) {
	sys := testSystem(t)
	topo, err := Uniform(1, 1, 1, testLoop(), []power.PackageState{testState(4, 8)})
	if err != nil {
		t.Fatal(err)
	}
	bad := faults.Scenario{Faults: []faults.Fault{{Kind: faults.PumpDegradation, Severity: 1.5}}}
	if _, err := New(sys, topo, Options{Scenario: &bad}); err == nil {
		t.Fatal("severity 1.5 accepted")
	}
	// A fault scoped to a blade that does not exist is a no-op, not an error.
	miss := faults.Scenario{Faults: []faults.Fault{{Kind: faults.BladeCoolingLoss, Severity: 0.5, Blade: "r9b9"}}}
	s, err := New(sys, topo, Options{Scenario: &miss})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// TestDegradedCancellation cancels during a throttle retry round and
// requires a prompt context.Canceled with no goroutines left behind.
func TestDegradedCancellation(t *testing.T) {
	sys := testSystem(t)
	topo, err := Uniform(2, 2, 1, testLoop(), []power.PackageState{testState(4.5, 8)})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	s, err := New(sys, topo, Options{Workers: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.tcaseLimitC = 1 // unreachable: forces throttle retry rounds
	s.progress = func(outer int, _ float64) {
		if outer == 1 {
			// Cancel at the start of the second fixed-point round — inside
			// the degraded-mode retry path.
			if rounds++; rounds == 2 {
				cancel()
			}
		}
	}
	_, err = s.Solve(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tcaseLimit is a solveOnce seam lowering the degraded-mode TCASE limit.
func tcaseLimit(c float64) func(*Solver) {
	return func(s *Solver) { s.tcaseLimitC = c }
}
