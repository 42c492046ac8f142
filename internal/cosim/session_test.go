package cosim

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// TestSessionMatchesFreshWithoutCarry: a reused non-carrying session must
// return bit-identical results to a fresh session, solve after solve —
// that equivalence is what lets the sweep studies reuse sessions without
// touching the byte-determinism contract.
func TestSessionMatchesFreshWithoutCarry(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ses := sys.NewSession(CarryWarmStart(false))
	op := thermosyphon.DefaultOperating()
	for _, f := range []float64{2.2, 1.2, 3.0} {
		st := fullLoadState(f)
		fresh, err := sys.NewSession().SolveSteady(nil, st, op)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ses.SolveSteady(nil, st, op)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Iterations != got.Iterations || fresh.TotalPowerW != got.TotalPowerW {
			t.Fatalf("freq %.1f: iterations/power differ: %d/%.6f vs %d/%.6f",
				f, fresh.Iterations, fresh.TotalPowerW, got.Iterations, got.TotalPowerW)
		}
		for i := range fresh.Field.T {
			if fresh.Field.T[i] != got.Field.T[i] {
				t.Fatalf("freq %.1f: field differs at cell %d: %v vs %v",
					f, i, fresh.Field.T[i], got.Field.T[i])
			}
		}
		for i := range fresh.Syphon.H {
			if fresh.Syphon.H[i] != got.Syphon.H[i] {
				t.Fatalf("freq %.1f: HTC differs at cell %d", f, i)
			}
		}
	}
}

// TestSessionWarmStartConverges: with the carry enabled the session must
// reach the same converged answer (within solver tolerance) in fewer or
// equal coupling iterations when re-solving a nearby point.
func TestSessionWarmStartConverges(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	st := fullLoadState(2.2)
	fresh, err := sys.NewSession().SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	freshDie, _ := sys.DieStats(fresh)
	coldIters := fresh.Iterations

	ses := sys.NewSession()
	if _, err := ses.SolveSteady(nil, st, op); err != nil {
		t.Fatal(err)
	}
	// Re-solve the identical point warm: must converge at least as fast
	// and land on the same temperatures within coupling tolerance.
	warm, err := ses.SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > coldIters {
		t.Fatalf("warm re-solve took %d iterations, cold took %d", warm.Iterations, coldIters)
	}
	warmDie, _ := sys.DieStats(warm)
	if d := math.Abs(warmDie.MaxC - freshDie.MaxC); d > 0.1 {
		t.Fatalf("warm re-solve drifted %.3f °C from the cold solve", d)
	}

	// A nearby operating point (one valve step) must also stay consistent
	// with its cold solve.
	op2 := op
	op2.WaterFlowKgH += 1
	coldNear, err := sys.NewSession().SolveSteady(nil, st, op2)
	if err != nil {
		t.Fatal(err)
	}
	coldNearDie, _ := sys.DieStats(coldNear)
	warmNear, err := ses.SolveSteady(nil, st, op2)
	if err != nil {
		t.Fatal(err)
	}
	warmNearDie, _ := sys.DieStats(warmNear)
	if d := math.Abs(warmNearDie.MaxC - coldNearDie.MaxC); d > 0.1 {
		t.Fatalf("warm nearby solve drifted %.3f °C from cold (%.3f vs %.3f)",
			d, warmNearDie.MaxC, coldNearDie.MaxC)
	}
	if warmNear.Iterations > coldNear.Iterations {
		t.Fatalf("warm nearby solve took %d iterations, cold took %d",
			warmNear.Iterations, coldNear.Iterations)
	}
}

// TestSessionReset: after Reset the next solve is cold and bit-identical
// to a fresh session's even on a carrying session.
func TestSessionReset(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	st := fullLoadState(2.0)
	fresh, err := sys.NewSession().SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	ses := sys.NewSession()
	if _, err := ses.SolveSteady(nil, st, op); err != nil {
		t.Fatal(err)
	}
	ses.Reset()
	got, err := ses.SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != fresh.Iterations {
		t.Fatalf("post-Reset solve not cold: %d vs %d iterations", got.Iterations, fresh.Iterations)
	}
	for i := range fresh.Field.T {
		if fresh.Field.T[i] != got.Field.T[i] {
			t.Fatalf("post-Reset field differs at cell %d", i)
		}
	}
}

// TestSessionLeakageMatchesFresh: the leakage solver on a reused
// non-carrying session must reproduce a fresh session's bit for bit.
func TestSessionLeakageMatchesFresh(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	st := fullLoadState(2.2)
	leak := power.DefaultLeakage()
	leak.RefC = 40
	fresh, err := sys.NewSession(CarryWarmStart(false)).SolveSteadyLeakage(nil, st, op, leak)
	if err != nil {
		t.Fatal(err)
	}
	ses := sys.NewSession(CarryWarmStart(false))
	if _, err := ses.SolveSteadyLeakage(nil, fullLoadState(1.2), op, leak); err != nil {
		t.Fatal(err)
	}
	got, err := ses.SolveSteadyLeakage(nil, st, op, leak)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Iterations != got.Iterations || fresh.TotalPowerW != got.TotalPowerW {
		t.Fatalf("leakage summary differs: %d/%.6f vs %d/%.6f",
			fresh.Iterations, fresh.TotalPowerW, got.Iterations, got.TotalPowerW)
	}
	want, err := sys.BlockTemps(fresh)
	if err != nil {
		t.Fatal(err)
	}
	have, err := sys.BlockTemps(got)
	if err != nil {
		t.Fatal(err)
	}
	for i, bt := range want {
		if have[i] != bt {
			t.Fatalf("block %s temperature differs", bt.Name)
		}
	}
}

// TestSessionSteadySolveAllocs is the cosim half of the allocation gate:
// after warm-up, a full coupled steady solve on a session — power
// rasterization, evaporator march, thermal CG, flux extraction — must not
// touch the heap at all.
func TestSessionSteadySolveAllocs(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ses := sys.NewSession()
	op := thermosyphon.DefaultOperating()
	st := fullLoadState(2.2)
	bp := sys.Power.BlockPowers(st)
	if _, err := ses.SolveSteadyPower(nil, bp, op); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ses.SolveSteadyPower(nil, bp, op); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("session steady solve allocated %.0f times per run, want 0", allocs)
	}
}

// TestSessionTransientStepAllocs: a workspace-backed transient step is
// heap-free after warm-up too.
func TestSessionTransientStepAllocs(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sys.NewSession().Transient(thermosyphon.DefaultOperating(), 30)
	if err != nil {
		t.Fatal(err)
	}
	bp := sys.Power.BlockPowers(fullLoadState(2.2))
	for i := 0; i < 3; i++ { // warm-up
		if err := sim.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := sim.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("transient step allocated %.0f times per run, want 0", allocs)
	}
}

// TestTransientChunksShareSession: two blades whose states alternate
// chunk by chunk on one session (Resume, three steps, ExportState), with a steady solve between chunks, step bit-identically
// to each blade on a session of its own, under both solvers and at one
// and two threads. Opening a sim drops the warm carry, so each steady
// solve in between is bit-identical to a cold solve on a fresh session.
func TestTransientChunksShareSession(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	blades := []struct {
		initialC float64
		power    map[string]float64
	}{
		{30, sys.Power.BlockPowers(fullLoadState(2.2))},
		{45, sys.Power.BlockPowers(fullLoadState(1.4))},
	}
	const dt, chunks, steps = 0.25, 3, 3
	st := fullLoadState(1.8)
	for _, solver := range []thermal.Solver{thermal.SolverCG, thermal.SolverMGPCG} {
		for _, threads := range []int{1, 2} {
			newSession := func() *Session {
				ses := sys.NewSession(WithSolver(solver), WithThreads(threads))
				t.Cleanup(func() { ses.Close() })
				return ses
			}
			cold, err := newSession().SolveSteady(nil, st, op)
			if err != nil {
				t.Fatal(err)
			}
			coldT := append([]float64(nil), cold.Field.T...)

			// want[b][c] is blade b's state after chunk c on its own session.
			want := make([][]*TransientState, len(blades))
			for b, bl := range blades {
				sim, err := newSession().Transient(op, bl.initialC)
				if err != nil {
					t.Fatal(err)
				}
				for c := 0; c < chunks; c++ {
					for i := 0; i < steps; i++ {
						if err := sim.Step(dt, bl.power); err != nil {
							t.Fatal(err)
						}
					}
					want[b] = append(want[b], sim.ExportState())
				}
			}

			shared := newSession()
			states := make([]*TransientState, len(blades))
			for b, bl := range blades {
				sim, err := shared.Transient(op, bl.initialC)
				if err != nil {
					t.Fatal(err)
				}
				states[b] = sim.ExportState()
			}
			for c := 0; c < chunks; c++ {
				for b, bl := range blades {
					sim, err := shared.Resume(op, states[b])
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < steps; i++ {
						if err := sim.Step(dt, bl.power); err != nil {
							t.Fatal(err)
						}
					}
					states[b] = sim.ExportState()
					if !reflect.DeepEqual(bitsOf(states[b]), bitsOf(want[b][c])) {
						t.Fatalf("%s/t%d blade %d chunk %d: shared-session state differs from its own session's", solver, threads, b, c)
					}
					res, err := shared.SolveSteady(nil, st, op)
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range res.Field.T {
						if math.Float64bits(v) != math.Float64bits(coldT[i]) {
							t.Fatalf("%s/t%d: steady solve after a chunk differs from a cold solve at cell %d", solver, threads, i)
						}
					}
				}
			}
		}
	}
}

// bitsOf is a state's float bit patterns, so NaN and -0 compare exactly.
func bitsOf(st *TransientState) [][]uint64 {
	out := [][]uint64{{math.Float64bits(st.TimeS)}}
	for _, v := range [][]float64{st.FieldT, st.BCH, st.BCTFluid} {
		b := make([]uint64, len(v))
		for i, x := range v {
			b[i] = math.Float64bits(x)
		}
		out = append(out, b)
	}
	return out
}

// TestSessionReseatWater: re-seating the warm start for a water-inlet
// change must (a) leave the converged answer where a cold solve puts it
// (within solver tolerances) and (b) not cost more coupling iterations
// than re-solving without the re-seat — it is the outer-fixed-point
// optimization the datacenter solver leans on.
func TestSessionReseatWater(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := fullLoadState(2.2)

	op := thermosyphon.DefaultOperating()
	ref := sys.NewSession()
	if _, err := ref.SolveSteady(nil, st, op); err != nil {
		t.Fatal(err)
	}
	op2 := op
	op2.WaterInC = op.WaterInC + 2
	refRes, err := ref.SolveSteady(nil, st, op2)
	if err != nil {
		t.Fatal(err)
	}
	refMax := maxT(refRes)

	ses := sys.NewSession()
	if _, err := ses.SolveSteady(nil, st, op); err != nil {
		t.Fatal(err)
	}
	ses.ReseatWater(op2.WaterInC - op.WaterInC)
	res, err := ses.SolveSteady(nil, st, op2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > refRes.Iterations {
		t.Fatalf("re-seated solve took %d iterations, plain warm re-solve %d",
			res.Iterations, refRes.Iterations)
	}
	if d := math.Abs(maxT(res) - refMax); d > 0.05 {
		t.Fatalf("re-seated answer drifted %.4f °C from the warm reference", d)
	}

	// A cold or non-carrying session must be unaffected by a re-seat.
	cold := sys.NewSession()
	cold.ReseatWater(5)
	coldRes, err := cold.SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sys.NewSession().SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Field.T {
		if fresh.Field.T[i] != coldRes.Field.T[i] {
			t.Fatalf("re-seat on a cold session changed the solve (cell %d)", i)
		}
	}
}

// TestSessionSwapCarryMatchesDedicated: two solve sequences sharing one
// session through SwapCarry must solve bit-identically to the same
// sequences on sessions of their own — warm starts, water re-seats and a
// failed solve (which drops its sequence's warm start, and only that one)
// included. It is the equivalence that lets datacenter blade classes
// share pooled sessions.
func TestSessionSwapCarryMatchesDedicated(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	leak := power.DefaultLeakage()
	op := thermosyphon.DefaultOperating()
	hot := op
	hot.WaterInC += 1.5
	sts := []power.PackageState{fullLoadState(2.2), fullLoadState(1.4)}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	steps := []struct {
		seq    int
		op     thermosyphon.Operating
		reseat float64
		ctx    context.Context
	}{
		{0, op, 0, nil},
		{1, op, 0, nil},
		{0, hot, 1.5, nil},
		{1, hot, 1.5, nil},
		{1, op, -1.5, cancelled}, // fails: sequence 1 starts cold again
		{1, op, 0, nil},
		{0, op, -1.5, nil},
	}
	for _, solver := range []thermal.Solver{thermal.SolverCG, thermal.SolverMGPCG} {
		own := []*Session{sys.NewSession(WithSolver(solver)), sys.NewSession(WithSolver(solver))}
		shared := sys.NewSession(WithSolver(solver))
		carries := make([]Carry, len(own))
		for i, s := range steps {
			own[s.seq].ReseatWater(s.reseat)
			want, wantErr := own[s.seq].SolveSteadyLeakage(s.ctx, sts[s.seq], s.op, leak)
			shared.SwapCarry(&carries[s.seq])
			shared.ReseatWater(s.reseat)
			got, gotErr := shared.SolveSteadyLeakage(s.ctx, sts[s.seq], s.op, leak)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%v step %d: dedicated error %v, shared error %v", solver, i, wantErr, gotErr)
			}
			if wantErr == nil {
				if got.Iterations != want.Iterations || got.TotalPowerW != want.TotalPowerW {
					t.Fatalf("%v step %d: shared %d passes / %v W, dedicated %d / %v W",
						solver, i, got.Iterations, got.TotalPowerW, want.Iterations, want.TotalPowerW)
				}
				for c := range want.Field.T {
					if got.Field.T[c] != want.Field.T[c] {
						t.Fatalf("%v step %d: cell %d differs from the dedicated session", solver, i, c)
					}
				}
			}
			shared.SwapCarry(&carries[s.seq])
			if carries[s.seq].warm != own[s.seq].warm {
				t.Fatalf("%v step %d: carried warm flag %v, dedicated session %v",
					solver, i, carries[s.seq].warm, own[s.seq].warm)
			}
		}
		if shared.warm {
			t.Fatalf("%v: a session whose sequences are all swapped out holds a warm start", solver)
		}
	}
}

func maxT(r *Result) float64 {
	m := math.Inf(-1)
	for _, v := range r.Field.T {
		if v > m {
			m = v
		}
	}
	return m
}

// TestSessionCloseIdempotent: Close must be a no-op the second time, and
// must be safe in any interleaving with eviction — the thermservd lease
// manager's LRU-eviction path and drain path can both close the same
// cached session. A closed session must also stay usable (serially) and
// keep returning byte-identical results.
func TestSessionCloseIdempotent(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ses := sys.NewSession(CarryWarmStart(false), WithThreads(2))
	op := thermosyphon.DefaultOperating()
	st := fullLoadState(2.2)
	before, err := ses.SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	maxBefore := maxT(before)
	for i := 0; i < 3; i++ {
		if err := ses.Close(); err != nil {
			t.Fatalf("Close #%d returned %v, want nil", i+1, err)
		}
	}
	after, err := ses.SolveSteady(nil, st, op)
	if err != nil {
		t.Fatalf("solve after double Close: %v", err)
	}
	if got := maxT(after); got != maxBefore {
		t.Fatalf("solve after Close differs: %v vs %v", got, maxBefore)
	}
	// And concurrent double-close must be race-free (exercised under
	// -race): the two paths of the lease manager can collide.
	ses2 := sys.NewSession(WithThreads(2))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses2.Close()
		}()
	}
	wg.Wait()
}

// TestBlockTemps: per-block die temperatures must be deterministic, in
// floorplan order, and consistent with the die layer (every block mean
// within [min, max] of the layer; the hottest block max equal to the die
// hot spot over covered cells).
func TestBlockTemps(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.NewSession().SolveSteady(nil, fullLoadState(2.5), thermosyphon.DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	bt, err := sys.BlockTemps(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(bt) != len(sys.FP.Blocks) {
		t.Fatalf("got %d block temps for %d blocks", len(bt), len(sys.FP.Blocks))
	}
	var hottest float64
	for i, b := range bt {
		if b.Name != sys.FP.Blocks[i].Name {
			t.Fatalf("block %d is %q, want floorplan order %q", i, b.Name, sys.FP.Blocks[i].Name)
		}
		if b.MeanC <= 0 || b.MaxC < b.MeanC {
			t.Fatalf("block %s: implausible mean %.2f / max %.2f", b.Name, b.MeanC, b.MaxC)
		}
		if b.MaxC > hottest {
			hottest = b.MaxC
		}
	}
	die, err := sys.DieStats(res)
	if err != nil {
		t.Fatal(err)
	}
	if hottest > die.MaxC+1e-9 {
		t.Fatalf("hottest block %.3f exceeds die max %.3f", hottest, die.MaxC)
	}
	again, err := sys.BlockTemps(res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bt, again) {
		t.Fatal("BlockTemps is not deterministic")
	}
}
