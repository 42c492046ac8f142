package cosim

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// Session is a reusable solve context bound to one System: it owns a
// thermal.Workspace plus every scratch buffer the coupled fixed point
// needs (flux vectors, the rasterized power map, the thermosyphon state),
// so repeated solves allocate nothing after warm-up. On top of buffer
// reuse it carries the previous converged temperature field and heat-flux
// boundary as the warm start for the next solve: nearby sweep points and
// consecutive governor/bisection steps are near-identical systems, so the
// outer coupling loop and the CG iterations inside it collapse to a few
// cheap refinement passes.
//
// Warm starting changes iteration counts, not the converged answer beyond
// the solver tolerances; when a caller needs solves that are bit-identical
// to the fresh System.SolveSteady* path (the byte-determinism contract of
// the sweep studies), disable the carry with CarryWarmStart(false) — the
// session then still reuses all buffers but seeds every solve exactly like
// a cold one.
//
// Results returned by a session alias session-owned buffers (Field,
// Syphon, BC): they are valid until the next solve on the same session.
// A session is NOT safe for concurrent use; give each goroutine its own.
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

	// closeMu serializes Close, the one method that may run concurrently
	// (see Close).
	closeMu sync.Mutex
}

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// CarryWarmStart toggles the cross-solve warm start (default on). With it
// off, every solve is seeded exactly like a fresh System.SolveSteady* call
// and produces bit-identical results — buffer reuse is kept either way.
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
// Close is idempotent: closing an already-closed session is a no-op.
// That is a load-bearing guarantee, not a convenience — the thermservd
// lease manager's LRU-eviction path and its drain path can both reach the
// same cached session, and the loser of that race must not corrupt the
// worker team the winner already tore down.
func (ses *Session) Close() error {
	ses.closeMu.Lock()
	defer ses.closeMu.Unlock()
	ses.ws.Close()
	return nil
}

// SolverStats returns the cumulative linear-solver effort (solves,
// iterations, operator applications) this session has spent.
func (ses *Session) SolverStats() thermal.SolveStats { return ses.ws.Stats() }

// Escalations returns every solver-ladder descent this session's solves
// have taken, in order (see thermal.Workspace.Escalations). Surfacing
// them is part of the graceful-degradation contract: a solve that had to
// fall back to a safer solver is reported, never hidden.
func (ses *Session) Escalations() []thermal.Escalation { return ses.ws.Escalations() }

// InjectMGFault arms (or disarms) the workspace's solver fault-injection
// hook (thermal.Workspace.InjectMGFault): while armed, multigrid-family
// solves poison their preconditioner and the escalation ladder has to
// rescue them. It exists for chaos drills — the thermservd chaos harness
// sabotages leased sessions through it to prove the breaker and the
// ladder telemetry behave under solver faults.
func (ses *Session) InjectMGFault(on bool) { ses.ws.InjectMGFault(on) }

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

// ReseatWater adapts the carried warm-start state to a change of the
// cooling-water inlet temperature: to first order a uniform inlet shift
// offsets the whole steady temperature field by the same amount and
// leaves the heat-flux distribution unchanged, so shifting the carried
// field by deltaC keeps the warm start tight when an outer loop (the
// datacenter water-temperature fixed point) re-solves the same blade at a
// slightly different water temperature. No system is rebuilt and nothing
// re-converges here — the next solve still iterates to the same converged
// answer (within solver tolerances), it just starts closer to it. A no-op
// on sessions with no carried state.
func (ses *Session) ReseatWater(deltaC float64) {
	if !ses.warm || !ses.carry || deltaC == 0 {
		return
	}
	f := ses.ws.FieldA()
	for i := range f.T {
		f.T[i] += deltaC
	}
}

// SolveSteady is System.SolveSteady on the session: coupled steady state
// for a CPU package state, warm-started from the previous solve when the
// carry is enabled. Cancelling ctx aborts the coupled fixed point between
// outer iterations; a nil ctx means "not cancellable".
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
const innerForcing = 1e-3

// SolveSteadyPower computes the coupled steady state for an explicit
// per-block power map (watts). This is the hot path of every sweep: after
// the first call on a session it performs zero heap allocations (asserted
// by the AllocsPerRun regression tests), and with the warm-start carry the
// previous converged field and flux distribution seed the fixed point.
// Each coupling pass solves its linear system only as tightly as the
// flux change it is chasing (see innerForcing).
// The context is observed between outer coupling iterations, so a
// cancelled solve returns ctx.Err() within one thermal solve; a nil ctx
// means "not cancellable".
func (ses *Session) SolveSteadyPower(ctx context.Context, blockPower map[string]float64, op thermosyphon.Operating) (*Result, error) {
	return ses.solveCoupled(ctx, blockPower, op, outerTol, innerForcing)
}

// solveCoupled is SolveSteadyPower with the outer tolerance and the
// forcing term as arguments; a forcing of 0 solves every pass to
// thermal.SteadyTol. Tests reach a tightly converged reference fixed
// point through it.
func (ses *Session) solveCoupled(ctx context.Context, blockPower map[string]float64, op thermosyphon.Operating, outer, forcing float64) (*Result, error) {
	s := ses.sys
	// The solver escalation ladder observes ctx between rungs.
	ses.ws.SetContext(ctx)
	pCells, err := s.coverage.PowerMapInto(ses.pCells, blockPower)
	if err != nil {
		return nil, err
	}
	ses.pCells = pCells
	var total float64
	for _, p := range pCells {
		total += p
	}
	grid := s.Thermal.Grid()
	ses.layerPower[0] = pCells

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
	if warm {
		init = field // previous converged temperatures
	}
	prev := math.Inf(1)
	// The first pass has no flux change to chase yet; it is solved as if
	// the previous one had just met the outer tolerance, so a warm start
	// that converges in one pass is as accurate as a cold solve's last.
	innerTol := forcing * outer
	const maxOuter = 60
	for it := 0; it < maxOuter; it++ {
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
		// Damped update and convergence on the flux change.
		var delta float64
		for i := range q {
			d := math.Abs(qNew[i] - q[i])
			if d > delta {
				delta = d
			}
			q[i] = 0.4*q[i] + 0.6*qNew[i]
		}
		ses.res = Result{
			Field:       field,
			Syphon:      syph,
			BlockPower:  blockPower,
			TotalPowerW: total,
			Iterations:  it + 1,
			BC:          bc,
		}
		var qMax float64
		for _, w := range qNew {
			if w > qMax {
				qMax = w
			}
		}
		if delta < outer*qMax+1e-6 || math.Abs(delta-prev) < 1e-9 {
			ses.warm = true
			return &ses.res, nil
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
	ses.warm = true
	return &ses.res, nil
}
