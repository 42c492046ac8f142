package cosim

import (
	"testing"

	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// parSystem builds a grid big enough to cross the parallel-dispatch
// threshold (40×36×5 = 7200 unknowns) without full-resolution test cost.
func parSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Stack.NX, cfg.Stack.NY = 40, 36
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSessionThreadsByteIdentical is the coupled-solve form of the
// determinism contract: a session solving with a worker team must
// reproduce the serial session's converged field, thermosyphon state and
// iteration count exactly, on both the CG and MG-PCG paths.
func TestSessionThreadsByteIdentical(t *testing.T) {
	sys := parSystem(t)
	bp := map[string]float64{"Core1": 12, "Core2": 9, "Core5": 11, "LLC": 4, "MemCtrl": 6.3, "Uncore": 7.7}
	op := thermosyphon.DefaultOperating()
	for _, opts := range [][]SessionOption{
		{CarryWarmStart(false)},
		{CarryWarmStart(false), WithSolver(thermal.SolverMGPCG)},
	} {
		ref := sys.NewSession(opts...)
		want, err := ref.SolveSteadyPower(nil, bp, op)
		if err != nil {
			t.Fatal(err)
		}
		wantT := append([]float64(nil), want.Field.T...)
		wantIters := want.Iterations

		for _, threads := range []int{2, 4} {
			ses := sys.NewSession(append([]SessionOption{WithThreads(threads)}, opts...)...)
			got, err := ses.SolveSteadyPower(nil, bp, op)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != wantIters {
				t.Fatalf("threads=%d: %d coupling iterations, serial %d", threads, got.Iterations, wantIters)
			}
			for i := range wantT {
				if got.Field.T[i] != wantT[i] {
					t.Fatalf("threads=%d: field differs at cell %d: %x vs %x", threads, i, got.Field.T[i], wantT[i])
				}
			}
			if got.Syphon.Loop.MassFlowKgS != want.Syphon.Loop.MassFlowKgS {
				t.Fatalf("threads=%d: thermosyphon state differs", threads)
			}
			if err := ses.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// Closed sessions still solve (serially) with identical bytes.
			again, err := ses.SolveSteadyPower(nil, bp, op)
			if err != nil {
				t.Fatal(err)
			}
			if again.Field.T[0] != wantT[0] {
				t.Fatal("post-Close solve diverged")
			}
		}
	}
}

// TestTransientThreadsByteIdentical steps a threaded transient sim
// against a serial twin: the per-step fields must match bit for bit (the
// slice-based layer-power path and the parallel kernels together).
func TestTransientThreadsByteIdentical(t *testing.T) {
	sys := parSystem(t)
	bp := map[string]float64{"Core1": 14, "Core4": 10, "LLC": 4, "MemCtrl": 6.3, "Uncore": 7.7}
	op := thermosyphon.DefaultOperating()

	serial, err := sys.NewSession().Transient(op, 45)
	if err != nil {
		t.Fatal(err)
	}
	threaded, err := sys.NewSession(WithThreads(4)).Transient(op, 45)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		if err := serial.Step(0.5, bp); err != nil {
			t.Fatal(err)
		}
		if err := threaded.Step(0.5, bp); err != nil {
			t.Fatal(err)
		}
		for i := range serial.Field().T {
			if serial.Field().T[i] != threaded.Field().T[i] {
				t.Fatalf("step %d: field differs at cell %d", step, i)
			}
		}
	}
}
