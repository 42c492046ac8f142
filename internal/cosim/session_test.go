package cosim

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/power"
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

// TestSessionTransientSharesWorkspace: one session can host steady solves
// and a transient run side by side without cross-talk.
func TestSessionTransientSharesWorkspace(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	st := fullLoadState(2.2)
	ses := sys.NewSession()
	sim, err := ses.Transient(op, 30)
	if err != nil {
		t.Fatal(err)
	}
	bp := sys.Power.BlockPowers(st)
	steady, err := ses.SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	steadyMax, _ := sys.DieStats(steady)
	for i := 0; i < 80; i++ {
		if err := sim.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
		// Interleave a steady solve to prove the buffers are disjoint.
		if i == 40 {
			if _, err := ses.SolveSteady(nil, st, op); err != nil {
				t.Fatal(err)
			}
		}
	}
	simMax, err := sim.DieMax()
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(simMax - steadyMax.MaxC); d > 3 {
		t.Fatalf("transient (%.1f) and steady (%.1f) diverged sharing a session", simMax, steadyMax.MaxC)
	}
}

// TestSessionSingleTransient: a second transient sim on one session would
// share (and corrupt) the first sim's buffers, so it must be refused.
func TestSessionSingleTransient(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ses := sys.NewSession()
	if _, err := ses.Transient(thermosyphon.DefaultOperating(), 30); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Transient(thermosyphon.DefaultOperating(), 50); err == nil {
		t.Fatal("second transient on one session must error")
	}
	// A fresh session is the documented way to run another sim.
	if _, err := sys.NewSession().Transient(thermosyphon.DefaultOperating(), 50); err != nil {
		t.Fatal(err)
	}
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
