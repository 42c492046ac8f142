package datacenter

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cosim"
	"repro/internal/faults"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/thermal"
)

// testSystem builds one coarse-grid blade system shared by every blade in
// a test fleet.
func testSystem(t *testing.T) *cosim.System {
	t.Helper()
	cfg := cosim.DefaultConfig()
	cfg.Stack.NX, cfg.Stack.NY = 19, 15
	sys, err := cosim.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// testState is a package operating point with nActive cores running at
// dynWatts each; the remaining cores idle in C1E.
func testState(dynWatts float64, nActive int) power.PackageState {
	st := power.PackageState{Freq: power.FMid, UncoreFreq: 2.0, LLC: 0.5}
	for i := range st.Cores {
		if i < nActive {
			st.Cores[i] = power.CoreLoad{Active: true, DynWatts: dynWatts}
		} else {
			st.Cores[i] = power.CoreLoad{Idle: power.C1E}
		}
	}
	return st
}

func testLoop() rack.SharedLoop {
	return rack.SharedLoop{SetpointC: 27, ApproachKPerKW: 0.5, PerBladeFlowKgH: 14, AmbientC: 35}
}

func TestSolverConvergesAndCouples(t *testing.T) {
	sys := testSystem(t)
	states := []power.PackageState{testState(4.5, 8), testState(2.5, 4)}
	topo, err := Uniform(2, 3, 2, testLoop(), states)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sys, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("outer fixed point did not converge: residual %.4f °C after %d iterations", rep.ResidualC, rep.OuterIterations)
	}
	// The plant approach couples load back into the supply temperature, so
	// the solve cannot be a single feed-forward pass.
	if rep.OuterIterations < 2 {
		t.Fatalf("expected a coupled solve (≥2 outer iterations), got %d", rep.OuterIterations)
	}
	if len(rep.Blades) != 6 || len(rep.Loops) != 2 {
		t.Fatalf("report shape: %d blades, %d loops", len(rep.Blades), len(rep.Loops))
	}
	if rep.ITPowerW <= 0 {
		t.Fatalf("IT power %.1f W", rep.ITPowerW)
	}
	for _, l := range rep.Loops {
		// Load-coupled supply: above setpoint, consistent with the loop law
		// at the converged heat to within the outer tolerance.
		if l.State.SupplyC <= 27 {
			t.Fatalf("loop %s supply %.3f °C not lifted above setpoint", l.Name, l.State.SupplyC)
		}
		want := 27 + 0.5*l.State.HeatW/1000
		if math.Abs(l.State.SupplyC-want) > 0.011 {
			t.Fatalf("loop %s supply %.4f °C inconsistent with its heat (want %.4f)", l.Name, l.State.SupplyC, want)
		}
		if l.State.ReturnC <= l.State.SupplyC {
			t.Fatalf("loop %s return %.3f ≤ supply %.3f", l.Name, l.State.ReturnC, l.State.SupplyC)
		}
	}
	if rep.Plant.PUE <= 1 {
		t.Fatalf("PUE %.3f must exceed 1", rep.Plant.PUE)
	}
	if rep.MaxDieC <= rep.Loops[0].State.SupplyC {
		t.Fatalf("hottest die %.1f °C not above the water it rejects to", rep.MaxDieC)
	}
}

func TestSolverClassAggregation(t *testing.T) {
	sys := testSystem(t)
	// Eight identical blades on one loop: one class, one solve per outer
	// iteration, identical per-blade rows.
	topo, err := Uniform(2, 4, 1, testLoop(), []power.PackageState{testState(4.0, 8)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sys, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Classes() != 1 {
		t.Fatalf("identical fleet should collapse to 1 class, got %d", s.Classes())
	}
	rep, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BladeSolves != rep.OuterIterations {
		t.Fatalf("1 class × %d iterations should mean %d solves, got %d",
			rep.OuterIterations, rep.OuterIterations, rep.BladeSolves)
	}
	for _, b := range rep.Blades[1:] {
		if b.HeatW != rep.Blades[0].HeatW || b.DieMaxC != rep.Blades[0].DieMaxC {
			t.Fatalf("identical blades diverged: %+v vs %+v", b, rep.Blades[0])
		}
	}
	if got := 8 * rep.Blades[0].HeatW; math.Abs(got-rep.ITPowerW) > 1e-9 {
		t.Fatalf("IT power %.3f ≠ 8 × blade heat %.3f", rep.ITPowerW, got)
	}
}

// TestSolverPooledByteIdentical is the outer-loop determinism contract:
// the same fleet solved serially and through the worker pool (with
// intra-solve threads) must produce byte-identical reports, under both
// linear solvers, warm starts included.
func TestSolverPooledByteIdentical(t *testing.T) {
	sys := testSystem(t)
	states := []power.PackageState{
		testState(4.5, 8), testState(3.5, 8), testState(2.5, 4), testState(5.0, 6),
	}
	topo, err := Uniform(4, 4, 2, testLoop(), states)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []thermal.Solver{thermal.SolverCG, thermal.SolverMGPCG} {
		var base *Report
		for _, split := range []struct{ workers, threads int }{{1, 1}, {4, 2}} {
			s, err := New(sys, topo, Options{
				Solver:  solver,
				Workers: split.workers,
				Threads: split.threads,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Solve(context.Background())
			s.Close()
			if err != nil {
				t.Fatalf("%v %dx%d: %v", solver, split.workers, split.threads, err)
			}
			if base == nil {
				base = rep
				continue
			}
			if !reflect.DeepEqual(base, rep) {
				t.Fatalf("%v: pooled %d×%d report differs from serial", solver, split.workers, split.threads)
			}
		}
	}
}

// TestSolverSessionPool: classes share pooled sessions, so a fleet of
// many classes builds at most Workers sessions per thermosyphon design,
// and a second solve builds none. At Threads: 2 every session owns one
// team goroutine, which is how the test counts the sessions the solver's
// pool has built.
func TestSolverSessionPool(t *testing.T) {
	sys := testSystem(t)
	var states []power.PackageState
	for i := 0; i < 13; i++ {
		states = append(states, testState(2+0.25*float64(i), 8))
	}
	// Blade r0b13 runs state 0 again, but a blade-scoped fault gives it
	// a class, and a design, of its own.
	topo, err := Uniform(1, 14, 1, testLoop(), states)
	if err != nil {
		t.Fatal(err)
	}
	sc := faults.Scenario{Faults: []faults.Fault{{Kind: faults.PartialDryout, Severity: 0.4, Blade: "r0b13"}}}
	base := settledTeamWorkers()
	s, err := New(sys, topo, Options{Workers: 2, Threads: 2, Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Classes() != 14 {
		t.Fatalf("%d classes, want 14", s.Classes())
	}
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	built := settledTeamWorkers() - base
	if built < 2 || built > 4 {
		t.Fatalf("%d sessions built for 2 designs at 2 workers, want 2 to 4", built)
	}
	if _, err := s.SolveScaled(context.Background(), 1.2); err != nil {
		t.Fatal(err)
	}
	if n := settledTeamWorkers() - base; n != built {
		t.Fatalf("the second solve built %d more sessions", n-built)
	}
	s.Close()
	if n := settledTeamWorkers() - base; n != 0 {
		t.Fatalf("%d session teams left after Close", n)
	}
}

// teamWorkers counts the live goroutines of intra-solve worker teams.
func teamWorkers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("linalg.NewTeam.func"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settledTeamWorkers is teamWorkers once the count has held still for
// 20 ms: a closed team's goroutines exit asynchronously.
func settledTeamWorkers() int {
	n := teamWorkers()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		m := teamWorkers()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestSolverCancellation cancels the context from the progress callback
// mid-solve and requires a prompt context.Canceled with no goroutines
// left behind.
func TestSolverCancellation(t *testing.T) {
	sys := testSystem(t)
	topo, err := Uniform(2, 2, 1, testLoop(), []power.PackageState{
		testState(4.5, 8), testState(2.5, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := New(sys, topo, Options{Workers: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.progress = func(outer int, _ float64) {
		if outer == 1 {
			cancel()
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

func TestSolverWarmSeries(t *testing.T) {
	sys := testSystem(t)
	topo, err := Uniform(2, 2, 1, testLoop(), []power.PackageState{testState(4.0, 8)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sys, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A second solve at the same load starts from the converged loop
	// temperatures and must terminate immediately.
	second, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.OuterIterations != 1 {
		t.Fatalf("re-solve at converged temperatures took %d outer iterations", second.OuterIterations)
	}
	if math.Abs(second.ITPowerW-first.ITPowerW) > 0.05 {
		t.Fatalf("re-solve moved IT power: %.3f → %.3f W", first.ITPowerW, second.ITPowerW)
	}
	// A load step re-couples the fleet and settles at measurably more heat.
	hot, err := s.SolveScaled(context.Background(), 1.3)
	if err != nil {
		t.Fatal(err)
	}
	if hot.ITPowerW <= first.ITPowerW {
		t.Fatalf("30%% more dynamic load should raise IT power: %.1f → %.1f W", first.ITPowerW, hot.ITPowerW)
	}
}

func TestSolverValidation(t *testing.T) {
	sys := testSystem(t)
	good, err := Uniform(1, 1, 1, testLoop(), []power.PackageState{testState(4, 8)})
	if err != nil {
		t.Fatal(err)
	}
	// Topology errors surface at construction.
	bad := good
	bad.Racks = nil
	if _, err := New(sys, bad, Options{}); err == nil {
		t.Fatal("topology with no racks must fail")
	}
	// A system without the power model cannot fold leakage.
	cfg := cosim.DefaultConfig()
	cfg.Stack.NX, cfg.Stack.NY = 19, 15
	noPower, err := cosim.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noPower.Power = nil
	if _, err := New(noPower, good, Options{}); err == nil {
		t.Fatal("system without power model must fail")
	}
	// Negative load scales are rejected.
	s, err := New(sys, good, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SolveScaled(context.Background(), -1); err == nil {
		t.Fatal("negative load scale must fail")
	}
}

func TestTopologyValidate(t *testing.T) {
	loop := testLoop()
	cases := []struct {
		name string
		mut  func(*Topology)
	}{
		{"no loops", func(t *Topology) { t.Loops = nil }},
		{"no blades", func(t *Topology) { t.Racks[0].Blades = nil }},
		{"loop out of range", func(t *Topology) { t.Racks[0].Loop = 7 }},
		{"zero flow", func(t *Topology) { t.Loops[0].PerBladeFlowKgH = 0 }},
		{"negative approach", func(t *Topology) { t.Loops[0].ApproachKPerKW = -1 }},
		{"setpoint out of range", func(t *Topology) { t.Loops[0].SetpointC = 120 }},
	}
	for _, tc := range cases {
		topo, err := Uniform(2, 2, 2, loop, []power.PackageState{testState(4, 8)})
		if err != nil {
			t.Fatal(err)
		}
		tc.mut(&topo)
		if err := topo.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted a broken topology", tc.name)
		}
	}
	// An orphaned loop (serving no rack) is a wiring bug.
	topo, err := Uniform(2, 2, 2, loop, []power.PackageState{testState(4, 8)})
	if err != nil {
		t.Fatal(err)
	}
	topo.Racks[1].Loop = 0
	if err := topo.Validate(); err == nil {
		t.Fatal("orphaned loop must fail validation")
	}
}

func TestUniformShape(t *testing.T) {
	states := []power.PackageState{testState(4, 8), testState(2, 4)}
	topo, err := Uniform(3, 2, 2, testLoop(), states)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.NumBlades() != 6 || len(topo.Loops) != 2 {
		t.Fatalf("shape: %d blades, %d loops", topo.NumBlades(), len(topo.Loops))
	}
	// Rack→loop assignment is round-robin, and blade states round-robin in
	// flat rack-major order.
	if topo.Racks[0].Loop != 0 || topo.Racks[1].Loop != 1 || topo.Racks[2].Loop != 0 {
		t.Fatalf("rack→loop: %d %d %d", topo.Racks[0].Loop, topo.Racks[1].Loop, topo.Racks[2].Loop)
	}
	if topo.Racks[0].Blades[1].State != states[1] || topo.Racks[1].Blades[0].State != states[0] {
		t.Fatal("blade states not round-robin in flat order")
	}
	// Degenerate parameters are rejected.
	for _, bad := range []func() (Topology, error){
		func() (Topology, error) { return Uniform(0, 2, 1, testLoop(), states) },
		func() (Topology, error) { return Uniform(2, 0, 1, testLoop(), states) },
		func() (Topology, error) { return Uniform(2, 2, 3, testLoop(), states) },
		func() (Topology, error) { return Uniform(2, 2, 0, testLoop(), states) },
		func() (Topology, error) { return Uniform(2, 2, 1, testLoop(), nil) },
	} {
		if _, err := bad(); err == nil {
			t.Fatal("degenerate Uniform parameters must fail")
		}
	}
}
