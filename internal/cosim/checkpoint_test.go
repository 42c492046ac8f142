package cosim

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// TestTransientExportImportExact pins the checkpoint/restore contract:
// stepping N, exporting, resuming a sim from the state on a fresh system,
// and stepping M more is bit-identical to stepping N+M uninterrupted — for
// both the CG and the MG-PCG solvers and across thread counts. The state
// round-trips through JSON on the way, so the test also proves the
// serialized form loses no bits.
func TestTransientExportImportExact(t *testing.T) {
	op := thermosyphon.DefaultOperating()
	const dt, stepsN, stepsM = 0.25, 5, 6
	for _, solver := range []thermal.Solver{thermal.SolverCG, thermal.SolverMGPCG} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s-t%d", solver, threads), func(t *testing.T) {
				newSession := func() *Session {
					sys, err := NewSystem(coarseConfig())
					if err != nil {
						t.Fatal(err)
					}
					ses := sys.NewSession(WithSolver(solver), WithThreads(threads))
					t.Cleanup(func() { ses.Close() })
					return ses
				}
				newSim := func() (*System, *TransientSim) {
					ses := newSession()
					sim, err := ses.Transient(op, 30)
					if err != nil {
						t.Fatal(err)
					}
					return ses.System(), sim
				}
				sysRef, ref := newSim()
				bp := sysRef.Power.BlockPowers(fullLoadState(2.2))
				for i := 0; i < stepsN+stepsM; i++ {
					if err := ref.Step(dt, bp); err != nil {
						t.Fatal(err)
					}
				}

				sysA, simA := newSim()
				bpA := sysA.Power.BlockPowers(fullLoadState(2.2))
				for i := 0; i < stepsN; i++ {
					if err := simA.Step(dt, bpA); err != nil {
						t.Fatal(err)
					}
				}
				// Serialize the exported state and restore from the parsed
				// bytes, exactly like the thermservd checkpoint file does.
				raw, err := json.Marshal(simA.ExportState())
				if err != nil {
					t.Fatal(err)
				}
				var st TransientState
				if err := json.Unmarshal(raw, &st); err != nil {
					t.Fatal(err)
				}

				sesB := newSession()
				simB, err := sesB.Resume(op, &st)
				if err != nil {
					t.Fatal(err)
				}
				sysB := sesB.System()
				if simB.Time() != simA.Time() {
					t.Fatalf("restored time %v, want %v", simB.Time(), simA.Time())
				}
				bpB := sysB.Power.BlockPowers(fullLoadState(2.2))
				for i := 0; i < stepsM; i++ {
					if err := simB.Step(dt, bpB); err != nil {
						t.Fatal(err)
					}
				}

				want, got := ref.Field().T, simB.Field().T
				if len(want) != len(got) {
					t.Fatalf("field sizes differ: %d vs %d", len(want), len(got))
				}
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("cell %d differs after restore: %v vs uninterrupted %v",
							i, got[i], want[i])
					}
				}
				if ref.Time() != simB.Time() {
					t.Fatalf("time diverged: %v vs %v", simB.Time(), ref.Time())
				}
			})
		}
	}
}

// TestTransientImportValidation exercises the Resume guard rails: a
// state from a different grid, a poisoned field, a negative or
// non-finite boundary, a negative time and an invalid operating point are
// all refused without touching the session's running sim.
func TestTransientImportValidation(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ses := sys.NewSession()
	op := thermosyphon.DefaultOperating()
	sim, err := ses.Transient(op, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(0.25, sys.Power.BlockPowers(fullLoadState(2.2))); err != nil {
		t.Fatal(err)
	}
	good := sim.ExportState()

	refuse := func(what string, op thermosyphon.Operating, st *TransientState) {
		t.Helper()
		if _, err := ses.Resume(op, st); err == nil {
			t.Fatalf("%s accepted", what)
		}
		if !reflect.DeepEqual(bitsOf(sim.ExportState()), bitsOf(good)) {
			t.Fatalf("refused %s changed the running sim", what)
		}
	}
	bad := *good
	bad.FieldT = bad.FieldT[:len(bad.FieldT)-1]
	refuse("short field", op, &bad)
	bad = *good
	bad.BCH = append([]float64(nil), bad.BCH[:1]...)
	refuse("short boundary", op, &bad)
	bad = *good
	bad.FieldT = append([]float64(nil), good.FieldT...)
	bad.FieldT[3] = math.NaN()
	refuse("NaN field", op, &bad)
	bad = *good
	bad.BCH = append([]float64(nil), good.BCH...)
	bad.BCH[5] = -1
	refuse("negative boundary HTC", op, &bad)
	bad = *good
	bad.BCTFluid = append([]float64(nil), good.BCTFluid...)
	bad.BCTFluid[5] = math.Inf(1)
	refuse("infinite boundary fluid temperature", op, &bad)
	bad = *good
	bad.TimeS = -1
	refuse("negative time", op, &bad)
	refuse("invalid operating point", thermosyphon.Operating{}, good)
	resumed, err := ses.Resume(op, good)
	if err != nil {
		t.Fatalf("valid state refused: %v", err)
	}
	if resumed.Time() != good.TimeS {
		t.Fatalf("resumed at %v s, want %v s", resumed.Time(), good.TimeS)
	}
}
