package cosim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// refPasses is the pass budget of the tight reference solves: an outer
// tolerance of 1e-6 needs several times the production loop's passes.
const refPasses = 500

// proposal is one steady what-if of the kind thermservd serves.
type proposal struct {
	name string
	st   power.PackageState
	op   thermosyphon.Operating
}

// servedProposals is the family the coupling loop's inner tolerance was
// sized on, 91 proposals: for each PARSEC benchmark, full load under POLL
// and C6 idle at water 22, 27.5 and 34 °C (flow alternating 5 and 9 kg/h),
// plus one four-core mapping at the default operating point.
func servedProposals() []proposal {
	full := workload.Config{Cores: 8, Threads: 8, Freq: power.FMax}
	four := workload.Config{Cores: 4, Threads: 4, Freq: power.FMax}
	var ps []proposal
	for _, b := range workload.All() {
		flow := 5.0
		for _, idle := range []power.CState{power.POLL, power.C6} {
			for _, water := range []float64{22, 27.5, 34} {
				m := core.Mapping{ActiveCores: []int{0, 1, 2, 3, 4, 5, 6, 7}, IdleState: idle, Config: full}
				ps = append(ps, proposal{
					name: fmt.Sprintf("%s/%s/%g°C/%gkg/h", b.Name, idle, water, flow),
					st:   core.PackageState(b, m),
					op:   thermosyphon.Operating{WaterInC: water, WaterFlowKgH: flow},
				})
				flow = 14 - flow // 5 ↔ 9
			}
		}
		m := core.Mapping{ActiveCores: []int{0, 2, 5, 7}, IdleState: power.POLL, Config: four}
		ps = append(ps, proposal{name: b.Name + "/4-core", st: core.PackageState(b, m), op: thermosyphon.DefaultOperating()})
	}
	return ps
}

// TestInexactInnerSolvesAccuracy: with each coupling pass solved only as
// tightly as its flux change warrants, the die hot spot of cold and
// warm-carried solves stays within 2e-3 °C of a tightly converged
// reference fixed point (outer tolerance 1e-6, every pass to
// thermal.SteadyTol) — the size of the 1 % outer loop's own error. The
// warm solve carries from the same package state at the default operating
// point, as a thermservd lease (keyed by mapping, not by water
// temperature or flow) carries between requests.
func TestInexactInnerSolvesAccuracy(t *testing.T) {
	const bound = 2e-3 // °C
	all := servedProposals()
	if len(all) != 91 {
		t.Fatalf("proposal family has %d members, want 91", len(all))
	}
	rng := rand.New(rand.NewSource(13))
	sample := rng.Perm(len(all))[:8]
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	dieMax := func(r *Result) float64 {
		d, err := sys.DieStats(r)
		if err != nil {
			t.Fatal(err)
		}
		return d.MaxC
	}
	for _, solver := range []thermal.Solver{thermal.SolverCG, thermal.SolverMGPCG} {
		ref := sys.NewSession(CarryWarmStart(false), WithSolver(solver))
		cold := sys.NewSession(CarryWarmStart(false), WithSolver(solver))
		warm := sys.NewSession(WithSolver(solver))
		for _, i := range sample {
			p := all[i]
			r, err := ref.solveCoupled(nil, sys.Power.BlockPowers(p.st), p.op, 1e-6, 0, refPasses, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := dieMax(r)
			warm.Reset()
			if _, err := warm.SolveSteady(nil, p.st, thermosyphon.DefaultOperating()); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				mode string
				ses  *Session
			}{{"cold", cold}, {"warm", warm}} {
				r, err := c.ses.SolveSteady(nil, p.st, p.op)
				if err != nil {
					t.Fatal(err)
				}
				if got := dieMax(r); math.Abs(got-want) > bound {
					t.Errorf("%s %s %s: die max %.6f °C, reference %.6f °C (|Δ| %.2e > %.0e)",
						solver, c.mode, p.name, got, want, math.Abs(got-want), bound)
				}
			}
		}
	}
}

// TestColdSolveAppliesTripwire pins the linear-solve effort of one cold
// coupled solve: coarse x264 at full load on Jacobi-CG. Solving every
// coupling pass to thermal.SteadyTol took ~1630 operator applications
// in 16 passes; the forcing term brought it near 500, and undamped
// passes with a loose first pass near 310 in 9. Counts are deterministic,
// so the bounds cannot flake.
func TestColdSolveAppliesTripwire(t *testing.T) {
	const (
		maxApplies = 360
		maxPasses  = 10
	)
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	m := core.Mapping{ActiveCores: []int{0, 1, 2, 3, 4, 5, 6, 7}, IdleState: power.POLL,
		Config: workload.Config{Cores: 8, Threads: 8, Freq: power.FMax}}
	ses := sys.NewSession()
	r, err := ses.SolveSteady(nil, core.PackageState(b, m), thermosyphon.DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	if got := ses.SolverStats().Applies; got > maxApplies {
		t.Errorf("cold coarse x264 cg solve took %d applies, want ≤ %d", got, maxApplies)
	}
	if r.Iterations > maxPasses {
		t.Errorf("cold coarse x264 cg solve took %d coupling passes, want ≤ %d", r.Iterations, maxPasses)
	}
}
