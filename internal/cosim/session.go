package cosim

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// Session is the solve context bound to one System, and the one way to
// run a coupled solve, steady or transient. It owns a thermal.Workspace
// plus every scratch buffer the coupled fixed point needs (flux vectors,
// the rasterized power map, the thermosyphon state), so repeated solves
// allocate nothing after warm-up. On top of buffer
// reuse it carries the previous converged temperature field and heat-flux
// boundary as the warm start for the next solve: nearby sweep points and
// consecutive controller/bisection steps are near-identical systems, so the
// outer coupling loop and the CG iterations inside it collapse to a few
// cheap refinement passes.
//
// Warm starting changes iteration counts, not the converged answer beyond
// the solver tolerances; when a caller needs every solve to be
// bit-identical to a cold solve on a fresh session (the byte-determinism
// contract of the sweep studies), disable the carry with
// CarryWarmStart(false) — the session then still reuses all buffers but
// seeds every solve exactly like a cold one. The first solve on a new
// session is always cold, so a one-off solve is
// sys.NewSession().SolveSteady(nil, st, op).
//
// Results returned by a session alias session-owned buffers (Field,
// Syphon, BC): they are valid until the next solve on the same session.
// A caller that keeps results across solves uses a session per kept
// result, or copies what it needs. A session is NOT safe for concurrent
// use; give each goroutine its own.
type Session struct {
	sys       *System
	ws        *thermal.Workspace
	carry     bool
	warm      bool
	transient bool // a TransientSim owns the workspace's B-side buffers

	// design, when non-nil, replaces the system's thermosyphon design for
	// this session's solves (WithDesign) — how faulted blades share one
	// System with healthy ones.
	design *thermosyphon.Design

	res        Result
	syph       *thermosyphon.State
	pCells     []float64
	q, qNew    []float64
	layerPower [][]float64 // dense die-layer injection table (index 0)
	bp         map[string]float64

	// safeguards counts the coupled solves whose flux change grew between
	// passes, so that they finished with damped steps (see safeguardMix).
	safeguards int

	// closeMu serializes Close, the one method that may run concurrently
	// (see Close).
	closeMu sync.Mutex
}

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// CarryWarmStart toggles the cross-solve warm start (default on). With it
// off, every solve is seeded exactly like the first solve on a fresh
// session and produces bit-identical results — buffer reuse is kept
// either way.
func CarryWarmStart(on bool) SessionOption {
	return func(s *Session) { s.carry = on }
}

// WithSolver selects the linear solver for every thermal solve the
// session performs (default thermal.SolverCG). A fixed selection keeps
// solves deterministic — serial and pooled sweeps using the same solver
// stay byte-identical — so the choice is purely a performance knob:
// thermal.SolverMGPCG turns fine grids (128×128 and up) from hundreds of
// CG iterations into a couple dozen.
func WithSolver(s thermal.Solver) SessionOption {
	return func(ses *Session) { ses.ws.SetSolver(s) }
}

// WithDesign overrides the thermosyphon design for this session's solves:
// the session evaporates with d instead of the system's design, while the
// thermal model, power model, and every buffer stay shared. This is how a
// fault scenario gives some blades a degraded cooling loop (reduced fill,
// fouled condenser, eroded HTC) without rebuilding a System per blade. The
// design must already be validated by the caller.
func WithDesign(d thermosyphon.Design) SessionOption {
	return func(ses *Session) { ses.design = &d }
}

// WithThreads sets the intra-solve thread count for every thermal solve
// the session performs: the stencil and fused CG kernels fan out across a
// persistent worker team of this width (n <= 0 selects GOMAXPROCS).
// Like WithSolver it is a pure performance knob — solves are
// byte-identical at any thread count — but the team holds goroutines, so
// sessions configured with threads should be Closed when retired (the
// sweep engine closes its worker sessions automatically).
func WithThreads(n int) SessionOption {
	return func(ses *Session) { ses.ws.SetThreads(n) }
}

// Close releases the session's worker team (if any). The session stays
// usable afterwards, solving serially. It implements io.Closer so the
// sweep engine can retire worker-state sessions; the returned error is
// always nil.
//
// Close is idempotent: closing an already-closed session is a no-op, and
// concurrent calls are safe. Owners that retire sessions on more than one
// path (an eviction and a drain, say) need not track which path won.
func (ses *Session) Close() error {
	ses.closeMu.Lock()
	defer ses.closeMu.Unlock()
	ses.ws.Close()
	return nil
}

// SolverStats returns the cumulative linear-solver effort (solves,
// iterations, operator applications) this session has spent.
func (ses *Session) SolverStats() thermal.SolveStats { return ses.ws.Stats() }

// Design returns the thermosyphon design this session solves with: the
// WithDesign override when set, the system's design otherwise.
func (ses *Session) Design() *thermosyphon.Design {
	if ses.design != nil {
		return ses.design
	}
	return &ses.sys.Design
}

// fail invalidates the warm-start carry and passes err through: after any
// failed solve the carried field/flux may be half-converged or
// NaN-contaminated, so the next solve on this session must start cold
// rather than warm-start from poisoned state.
func (ses *Session) fail(err error) error {
	ses.warm = false
	return err
}

// NewSession returns a reusable solve session for the system.
func (s *System) NewSession(opts ...SessionOption) *Session {
	ses := &Session{
		sys:        s,
		ws:         s.Thermal.NewWorkspace(),
		carry:      true,
		layerPower: make([][]float64, 1),
	}
	for _, o := range opts {
		o(ses)
	}
	return ses
}

// System returns the system the session solves.
func (ses *Session) System() *System { return ses.sys }

// Reset drops the carried warm-start state; the next solve starts cold.
func (ses *Session) Reset() { ses.warm = false }

// Carry is a session's warm-start state held outside the session: the
// converged temperature field, the converged top-surface heat flux, and
// whether they are valid. It is the only numerical state a steady solve
// passes to the next one (the workspace and every other buffer are fully
// overwritten by each solve), so many solve sequences can share one
// session by swapping their Carry in before a solve and out after it
// (SwapCarry), and each sequence solves bit-identically to running on a
// session of its own. The zero value is a cold start.
type Carry struct {
	t, q []float64
	warm bool
}

// SwapCarry exchanges the session's warm-start state with c in O(1): no
// buffer is copied. Swapping a sequence's Carry in, solving, and swapping
// it back out leaves the session holding whatever state it had before.
// A zero Carry swaps in a cold start; its field buffer is allocated here
// on first use. A failed solve drops the warm flag, and swapping out
// carries that into c too. The Result of a solve aliases the swapped-in
// field, so read it before swapping out. Not for sessions running a
// transient simulation.
func (ses *Session) SwapCarry(c *Carry) {
	f := ses.ws.FieldA()
	if c.t == nil {
		c.t = make([]float64, len(f.T))
	}
	f.T, c.t = c.t, f.T
	ses.q, c.q = c.q, ses.q
	ses.warm, c.warm = c.warm, ses.warm
}

// ReseatWater adapts the carried warm-start state to a change of the
// cooling-water inlet temperature: to first order a uniform inlet shift
// offsets the whole steady temperature field by the same amount and
// leaves the heat-flux distribution unchanged, so shifting the carried
// field by deltaC keeps the warm start tight when an outer loop (the
// datacenter water-temperature fixed point) re-solves the same blade at a
// slightly different water temperature. It acts on whatever state the
// session holds, a Carry swapped in by SwapCarry included. No system is
// rebuilt and nothing re-converges here — the next solve still iterates
// to the same converged answer (within solver tolerances), it just starts
// closer to it. A no-op on sessions with no carried state.
func (ses *Session) ReseatWater(deltaC float64) {
	if !ses.warm || !ses.carry || deltaC == 0 {
		return
	}
	f := ses.ws.FieldA()
	for i := range f.T {
		f.T[i] += deltaC
	}
}

// SolveSteady computes the coupled steady state for a CPU package state at
// the given cooling operating point, warm-started from the previous solve
// when the carry is enabled. It requires the Xeon power model (systems
// built by NewSystem); custom systems use SolveSteadyPower. Cancelling
// ctx aborts the coupled fixed point between outer iterations; a nil ctx
// means "not cancellable".
func (ses *Session) SolveSteady(ctx context.Context, st power.PackageState, op thermosyphon.Operating) (*Result, error) {
	if ses.sys.Power == nil {
		return nil, fmt.Errorf("cosim: system has no power model; use SolveSteadyPower")
	}
	ses.bp = ses.sys.Power.BlockPowersInto(ses.bp, st)
	return ses.SolveSteadyPower(ctx, ses.bp, op)
}

// outerTol is the coupling loop's convergence test: it stops once the
// largest per-cell flux change falls below 1 % of the largest cell flux.
// Temperature errors are then far below the 0.1 °C the experiments care
// about.
const outerTol = 1e-2

// innerForcing is the Eisenstat–Walker forcing term η of the coupling
// loop: pass k solves its linear system only to a relative residual of
// η·min(relΔ_{k−1}, 1), floored at thermal.SteadyTol, where relΔ_{k−1}
// is the relative flux change of the previous pass. Solving tighter buys
// nothing, because the boundary condition of pass k is itself still wrong
// by about relΔ_{k−1}. The factor 1e-3 is margin: a residual that small
// moves the top-surface flux by far less than the change the pass is
// chasing. So the solve error never decides which pass meets outerTol,
// and the outer iteration counts stay what they are with exact solves.
//
// The first pass has no previous change to chase. A warm start's flux is
// the previous converged one, so its first pass is solved as if relΔ had
// just met outerTol (η·outerTol = 1e-5): a warm solve that converges in
// one pass is then as accurate as a cold solve's last. A cold start's
// flux is the die power projected straight up, which is about 90 % off
// the converged flux (relΔ of the first cold pass ≈ 0.9), so its first
// pass takes the cap, η·1 = 1e-3.
const innerForcing = 1e-3

// safeguardMix is the share of the new flux the coupling loop keeps once
// its safeguard has fired. The loop iterates q ← qNew (plain Picard): on
// cold solves the coupling map contracts the flux error by about 0.5 per
// pass, steadily and without oscillation, so any fixed mixing
// q ← (1−w)q + w·qNew only slows it to 1 − w + w·0.5 per pass (0.7 at
// w = 0.6, seven extra passes to reach outerTol). A pass whose flux change
// exceeds the previous pass's is the sign that full steps are not
// shrinking the error, and from that pass on the solve mixes
// q ← ½q + ½qNew: for a map whose error factor is λ, the mixed step has
// factor ½(1+λ), which is below 1 in magnitude for every λ ∈ (−3, 1), so
// it damps overshoot (λ < −1) as well as a slow drift, at the cost of at
// most halving the contraction of a well-behaved map. In practice it fires
// on warm-carried re-solves after a load step, whose flux change grows
// from the first pass to the second while the boiling side catches up
// with the new power; there it costs passes (13 instead of 7 for a 30 %
// step at coarse) but no accuracy.
const safeguardMix = 0.5

// maxOuter is the coupling loop's pass budget. Undamped cold solves take
// 9–14 passes at the 1 % outer tolerance, even under heavy cooling faults;
// sixty is room for a safeguarded solve contracting at 0.9 per pass from a
// wild start. A solve that exhausts it returns an error wrapping
// linalg.ErrNotConverged.
const maxOuter = 60

// SolveSteadyPower computes the coupled steady state for an explicit
// per-block power map (watts). This is the hot path of every sweep: after
// the first call on a session it performs zero heap allocations (asserted
// by the AllocsPerRun regression tests), and with the warm-start carry the
// previous converged field and flux distribution seed the fixed point.
// Each coupling pass solves its linear system only as tightly as the
// flux change it is chasing (see innerForcing), and passes take full
// fixed-point steps unless the flux change grows (see safeguardMix).
// The context is observed between outer coupling iterations, so a
// cancelled solve returns ctx.Err() within one thermal solve; a nil ctx
// means "not cancellable". A solve that has not met the outer tolerance
// after maxOuter passes fails with an error wrapping
// linalg.ErrNotConverged.
func (ses *Session) SolveSteadyPower(ctx context.Context, blockPower map[string]float64, op thermosyphon.Operating) (*Result, error) {
	return ses.solveCoupled(ctx, blockPower, op, outerTol, innerForcing, maxOuter, nil)
}

// rasterize spreads the block powers onto the die layer's injection
// table and returns their total.
func (ses *Session) rasterize(blockPower map[string]float64) (float64, error) {
	pCells, err := ses.sys.coverage.PowerMapInto(ses.pCells, blockPower)
	if err != nil {
		return 0, err
	}
	ses.pCells = pCells
	ses.layerPower[0] = pCells
	var total float64
	for _, p := range pCells {
		total += p
	}
	return total, nil
}

// solveCoupled is SolveSteadyPower with the outer tolerance, the forcing
// term and the pass budget as arguments; a forcing of 0 solves every pass
// to thermal.SteadyTol. Tests reach a tightly converged reference fixed
// point, and the budget's failure path, through it. A non-nil lk
// re-derives blockPower from the die temperatures after every pass, and
// the solve stops only once those powers have settled as well.
func (ses *Session) solveCoupled(ctx context.Context, blockPower map[string]float64, op thermosyphon.Operating, outer, forcing float64, passes int, lk *leakTerm) (*Result, error) {
	s := ses.sys
	total, err := ses.rasterize(blockPower)
	if err != nil {
		return nil, err
	}
	pCells := ses.pCells
	grid := s.Thermal.Grid()

	// Initial heat-flux guess: the previous converged flux when warm, else
	// the die power projected straight up.
	warm := ses.carry && ses.warm
	if cap(ses.q) < len(pCells) {
		ses.q = make([]float64, len(pCells))
		warm = false
	}
	ses.q = ses.q[:len(pCells)]
	if !warm {
		copy(ses.q, pCells)
	}
	q := ses.q

	field := ses.ws.FieldA()
	var init *thermal.Field
	// The first pass chases the error of the initial flux guess (see
	// innerForcing): about the outer tolerance when warm, order one when
	// cold.
	innerTol := forcing
	if warm {
		init = field // previous converged temperatures
		innerTol = forcing * outer
	}
	prev := math.Inf(1)
	damped := false // full Picard steps until the safeguard fires
	var delta, qMax float64
	for it := 0; it < passes; it++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, ses.fail(err)
			}
		}
		syph, err := ses.Design().EvaporateInto(ses.syph, grid, q, op)
		if err != nil {
			return nil, ses.fail(fmt.Errorf("cosim: iteration %d: %w", it, err))
		}
		ses.syph = syph
		bc := thermal.TopBoundary{H: syph.H, TFluid: syph.TFluid}
		if err := ses.ws.SteadySolveLayersTolInto(field, init, ses.layerPower, bc, innerTol); err != nil {
			return nil, ses.fail(fmt.Errorf("cosim: iteration %d: %w", it, err))
		}
		init = field
		ses.qNew = field.TopHeatPerCellInto(ses.qNew, bc)
		qNew := ses.qNew
		delta, qMax = 0, 0
		for i := range q {
			if d := math.Abs(qNew[i] - q[i]); d > delta {
				delta = d
			}
			if qNew[i] > qMax {
				qMax = qNew[i]
			}
		}
		// Safeguard: a growing flux change switches the rest of this solve
		// to damped steps (see safeguardMix).
		if delta > prev && !damped {
			damped = true
			ses.safeguards++
		}
		if damped {
			for i := range q {
				q[i] = (1-safeguardMix)*q[i] + safeguardMix*qNew[i]
			}
		} else {
			copy(q, qNew)
		}
		ses.res = Result{
			Field:       field,
			Syphon:      syph,
			BlockPower:  blockPower,
			TotalPowerW: total,
			Iterations:  it + 1,
			BC:          bc,
		}
		settled := lk == nil || lk.rederive(s.DieTemps(&ses.res), blockPower) < lk.tol
		if (delta < outer*qMax+1e-6 || math.Abs(delta-prev) < 1e-9) && settled {
			ses.warm = true
			return &ses.res, nil
		}
		if lk != nil {
			lk.apply(blockPower)
			if total, err = ses.rasterize(blockPower); err != nil {
				return nil, ses.fail(err)
			}
		}
		prev = delta
		// The next pass chases a relative flux change of delta/qMax,
		// capped at 1 so a wild pass never loosens the solve past the
		// forcing term itself. A NaN ratio falls back to the tight
		// tolerance, as does anything below it.
		innerTol = forcing * math.Min(delta/qMax, 1)
		if !(innerTol > thermal.SteadyTol) {
			innerTol = thermal.SteadyTol
		}
	}
	return nil, ses.fail(fmt.Errorf("cosim: coupling not converged after %d passes (flux change %.3g of the peak cell flux, tolerance %g): %w",
		passes, delta/qMax, outer, linalg.ErrNotConverged))
}
