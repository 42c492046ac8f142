// Package experiments regenerates every table and figure of the paper's
// evaluation (§III-B Fig. 2, §IV Fig. 3 and Table I, §VI Fig. 5, §VII
// Fig. 6, §VIII Table II, Fig. 7 and the cooling-power study), plus the
// §VI design-space study and the extension studies.
//
// The package is organized as a catalog of self-describing experiments:
// each scenario is one Experiment entry (name, description, a typed
// Run(ctx, RunConfig) entry point) and every consumer — cmd/paperbench,
// internal/report and thermservd's /v1/experiments endpoint — renders the
// uniform Result it returns. Configuration travels exclusively through
// RunConfig; there is deliberately no process-wide mutable state, so
// concurrent runs with different solvers or worker budgets cannot
// observe each other.
package experiments

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/faults"
	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// Resolution selects the thermal grid density. Figures use Full; the bulk
// policy sweeps use Medium; unit tests and benchmarks use Coarse.
type Resolution int

// Available resolutions.
const (
	// Coarse is 2 mm cells (19×15): fast, for tests and benchmarks.
	Coarse Resolution = iota
	// Medium is 1 mm cells (38×30): the bulk-sweep default.
	Medium
	// Full is 0.5 mm cells (76×60): the figure-quality default.
	Full
)

// String names the resolution.
func (r Resolution) String() string {
	switch r {
	case Coarse:
		return "coarse"
	case Medium:
		return "medium"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("resolution(%d)", int(r))
	}
}

// ParseResolution is the inverse of Resolution.String: it resolves the
// -res flag every command exposes.
func ParseResolution(s string) (Resolution, error) {
	switch s {
	case "coarse":
		return Coarse, nil
	case "medium":
		return Medium, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("experiments: unknown resolution %q (want coarse|medium|full)", s)
	}
}

func (r Resolution) dims() (nx, ny int) {
	switch r {
	case Coarse:
		return 19, 15
	case Medium:
		return 38, 30
	default:
		return 76, 60
	}
}

// Grid returns the package-plane thermal grid of the resolution — the
// geometry the map artifacts of every experiment are rendered on.
func (r Resolution) Grid() floorplan.Grid {
	pg := floorplan.XeonE5Package()
	nx, ny := r.dims()
	return floorplan.NewGrid(nx, ny, pg.Width, pg.Height)
}

// RunConfig carries everything a single experiment run needs. A zero
// value is valid: coarse resolution, the Jacobi-CG solver, GOMAXPROCS
// sweep workers, and no fault scenario. RunConfig is a value type passed
// explicitly through every run — two concurrent runs with different
// configurations are fully isolated.
type RunConfig struct {
	// Resolution selects the thermal grid density.
	Resolution Resolution
	// Solver selects the thermal linear solver for every solve session
	// the run creates. A fixed selection keeps pooled sweeps
	// byte-identical to serial runs; the knob only trades solver work for
	// the same answers.
	Solver thermal.Solver
	// Workers bounds the sweep worker pool (0 = auto, 1 = serial).
	Workers int
	// Threads is the intra-solve thread count of every solve session the
	// run creates: the stencil and fused CG kernels fan out across a
	// per-session worker team of this width (0 = auto, 1 = serial). Like
	// Workers and Solver it never changes results — solves are
	// byte-identical at any thread count.
	//
	// Workers and Threads share one core budget: when either is 0 the run
	// splits GOMAXPROCS between them (workers × threads ≤ GOMAXPROCS,
	// see SplitBudget), so a run uses the whole machine whether its
	// parallelism lives across points or inside one solve.
	Threads int
	// Scenario, when non-nil, is a custom cooling-fault scenario (the
	// -fault flag). The failure-scenarios experiment appends it to its
	// sweep; experiments that do not model faults ignore it.
	Scenario *faults.Scenario
}

// At is the short-form RunConfig for a resolution with the default solver
// and worker pool — what tests and benchmarks use.
func At(res Resolution) RunConfig { return RunConfig{Resolution: res} }

// SplitBudget resolves the (Workers, Threads) pair for a sweep over the
// given number of points under the shared GOMAXPROCS core budget.
// Explicit non-zero settings are honored as-is (setting both lets a
// caller deliberately oversubscribe); a zero field is derived from the
// other so that workers × threads ≤ GOMAXPROCS. When both are zero,
// width-first fills the worker pool up to the point count and hands the
// leftover cores to each solve's team — a 13-point sweep on 8 cores runs
// 8 workers × 1 thread, a 2-point study runs 2 workers × 4 threads. A
// study whose solves each fill the machine passes 1 point and runs its
// points serially through one worker.
//
// Beyond the sweep studies, this is the one budget rule every consumer of
// the solve stack shares: the thermservd lease manager resolves its
// concurrent-solve bound (Workers) and per-session team width (Threads)
// through the same split, so a daemon and a batch sweep divide a machine
// identically.
func (cfg RunConfig) SplitBudget(points int) RunConfig {
	procs := runtime.GOMAXPROCS(0)
	if points < 1 {
		points = 1
	}
	w, t := cfg.Workers, cfg.Threads
	switch {
	case w > 0 && t > 0:
		// Both explicit: the caller owns the budget.
	case w > 0:
		// Clamp to the point count before deriving threads, so the cores
		// a too-wide worker request would strand flow to the solve teams
		// instead of idling.
		if w > points {
			w = points
		}
		t = procs / w
	case t > 0:
		w = procs / t
	default:
		w = points
		if w > procs {
			w = procs
		}
		t = procs / w
	}
	if w < 1 {
		w = 1
	}
	if w > points {
		w = points
	}
	if t < 1 {
		t = 1
	}
	cfg.Workers, cfg.Threads = w, t
	return cfg
}

// sessionOptions returns the solver- and thread-selection option set
// applied to every session the run creates, prepended to any caller
// extras.
func (cfg RunConfig) sessionOptions(extra ...cosim.SessionOption) []cosim.SessionOption {
	opts := []cosim.SessionOption{cosim.WithSolver(cfg.Solver)}
	if cfg.Threads > 1 {
		opts = append(opts, cosim.WithThreads(cfg.Threads))
	}
	return append(opts, extra...)
}

// newPool returns a pool of solve sessions on sys with the run's solver
// and threads and the cross-solve warm start disabled. Pooled sweeps
// claim points in a schedule-dependent order, so a session that carried
// its warm start from one point to the next would make a parallel run
// differ from the serial one. Without the carry every solve is
// bit-identical to a cold solve on a fresh session, while the pool still
// reuses each session's buffers across the points. The caller closes
// the pool.
func (cfg RunConfig) newPool(sys *cosim.System) *cosim.Pool {
	return sys.NewPool(cfg.sessionOptions(cosim.CarryWarmStart(false))...)
}

// NewSystem builds a co-simulation system with the given thermosyphon
// design at the resolution.
func NewSystem(design thermosyphon.Design, res Resolution) (*cosim.System, error) {
	cfg := cosim.DefaultConfig()
	cfg.Design = design
	cfg.Stack.NX, cfg.Stack.NY = res.dims()
	return cosim.NewSystem(cfg)
}

// FullLoadMapping returns the all-cores mapping used whenever a workload
// occupies the whole CPU.
func FullLoadMapping(cfg workload.Config, idle power.CState) core.Mapping {
	m := core.Mapping{IdleState: idle, Config: cfg}
	for i := 0; i < 8; i++ {
		m.ActiveCores = append(m.ActiveCores, i)
	}
	return m
}

// SolveMappingSession runs the coupled solve for a benchmark under a
// mapping on a solve session and returns die and package statistics.
// Cancelling ctx aborts the coupled solve between outer iterations. The
// returned result aliases session buffers and is valid until the
// session's next solve.
func SolveMappingSession(ctx context.Context, ses *cosim.Session, b workload.Benchmark, m core.Mapping, op thermosyphon.Operating) (die, pkg metrics.MapStats, res *cosim.Result, err error) {
	st := core.PackageState(b, m)
	res, err = ses.SolveSteady(ctx, st, op)
	if err != nil {
		return
	}
	sys := ses.System()
	die, err = sys.DieStats(res)
	if err != nil {
		return
	}
	pkg, err = sys.PackageStats(res)
	return
}
