package cosim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// referenceOf builds a coarse System, runs its first solves through run
// and returns the System.
func referenceOf(t *testing.T, run func(sys *System)) *System {
	t.Helper()
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	run(sys)
	return sys
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s differs at %d: %x vs %x", what, i, got[i], want[i])
		}
	}
}

// TestReferenceFluxHistoryIndependent: the reference flux is a pure
// function of the System. Whichever session computes it — one with a
// fouled-condenser design, one on Jacobi-CG, one on two threads, one
// whose buffers hold a leakage solve and a transient step — its bits
// equal those a healthy serial MG-PCG session computes. So does the
// answer of the solve that computed it, against the same solve on a
// System whose reference flux was already there.
func TestReferenceFluxHistoryIndependent(t *testing.T) {
	st := fullLoadState(2.2)
	op := thermosyphon.Operating{WaterInC: 31, WaterFlowKgH: 5}
	solve := func(ses *Session) []float64 {
		t.Helper()
		r, err := ses.SolveSteady(nil, st, op)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), r.Field.T...)
	}
	var wantField []float64
	want := referenceOf(t, func(sys *System) {
		ses := sys.NewSession(WithSolver(thermal.SolverMGPCG))
		solve(ses)
		wantField = solve(sys.NewSession(WithSolver(thermal.SolverMGPCG)))
	}).refFlux
	if want == nil {
		t.Fatal("a cold solve left no reference flux")
	}
	fouled := thermosyphon.DefaultDesign()
	fouled.CondenserUA *= 0.4
	for _, c := range []struct {
		name string
		run  func(sys *System) []float64
	}{
		{"fouled design", func(sys *System) []float64 {
			solve(sys.NewSession(WithSolver(thermal.SolverMGPCG), WithDesign(fouled)))
			return nil
		}},
		{"cg", func(sys *System) []float64 {
			ses := sys.NewSession(WithSolver(thermal.SolverCG))
			solve(ses)
			if ses.ws.Solver() != thermal.SolverCG {
				t.Errorf("the reference solve left the session on %v", ses.ws.Solver())
			}
			return nil
		}},
		{"2 threads", func(sys *System) []float64 {
			ses := sys.NewSession(WithSolver(thermal.SolverMGPCG), WithThreads(2))
			defer ses.Close()
			return solve(ses)
		}},
		{"after leakage and transient", func(sys *System) []float64 {
			ses := sys.NewSession(WithSolver(thermal.SolverMGPCG))
			if _, err := ses.SolveSteadyLeakage(nil, st, op, power.DefaultLeakage()); err != nil {
				t.Fatal(err)
			}
			sim, err := ses.Transient(op, 40)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Step(0.25, sys.Power.BlockPowers(st)); err != nil {
				t.Fatal(err)
			}
			return solve(ses)
		}},
	} {
		var field []float64
		got := referenceOf(t, func(sys *System) { field = c.run(sys) }).refFlux
		sameFloats(t, c.name+": reference flux", got, want)
		if field != nil {
			sameFloats(t, c.name+": field of the solve that computed the reference", field, wantField)
		}
	}
}

// TestReferenceFluxConcurrentFirstSolves: four sessions of a fresh System
// start their first solves at once, so they race to compute the
// reference flux; every answer equals a serial solve's bit for bit. The
// race detector covers the hand-off.
func TestReferenceFluxConcurrentFirstSolves(t *testing.T) {
	st, op := fullLoadState(1.8), thermosyphon.DefaultOperating()
	var want []float64
	referenceOf(t, func(sys *System) {
		r, err := sys.NewSession(CarryWarmStart(false)).SolveSteady(nil, st, op)
		if err != nil {
			t.Fatal(err)
		}
		want = r.Field.T
	})
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]float64, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := sys.NewSession(CarryWarmStart(false)).SolveSteady(nil, st, op)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = r.Field.T
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		sameFloats(t, fmt.Sprintf("session %d field", i), g, want)
	}
}

// TestReferenceFluxLazy: leakage solves and transient simulations keep
// their own starts and never compute the reference flux, and a reference
// solve cancelled before its first pass stores nothing, so the next cold
// solve computes it.
func TestReferenceFluxLazy(t *testing.T) {
	st, op := fullLoadState(2.2), thermosyphon.DefaultOperating()
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ses := sys.NewSession()
	if _, err := ses.SolveSteadyLeakage(nil, st, op, power.DefaultLeakage()); err != nil {
		t.Fatal(err)
	}
	sim, err := sys.NewSession().Transient(op, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(0.25, sys.Power.BlockPowers(st)); err != nil {
		t.Fatal(err)
	}
	if sys.refFlux != nil {
		t.Fatal("a leakage solve or a transient step computed the reference flux")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.NewSession().SolveSteady(ctx, st, op); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled first cold solve: err = %v, want context.Canceled", err)
	}
	if sys.refFlux != nil {
		t.Fatal("a cancelled reference solve stored a reference flux")
	}
	if _, err := sys.NewSession().SolveSteady(nil, st, op); err != nil {
		t.Fatal(err)
	}
	if sys.refFlux == nil {
		t.Fatal("a cold solve after the cancelled one computed no reference flux")
	}
}
