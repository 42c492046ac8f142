package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cosim"
	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sweep"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// ScalabilityCell is one (die, mapping) cell of the scalability extension.
type ScalabilityCell struct {
	Cores     int
	Mapping   string
	Die       metrics.MapStats
	DryoutPct float64 // fraction of evaporator cells past critical quality
}

// scaledSystem builds the generic die and custom co-simulation system for
// one grid dimension of the scalability study.
func scaledSystem(dims [2]int, res Resolution) (*cosim.System, floorplan.GridSpec, error) {
	spec := floorplan.DefaultGridSpec(dims[0], dims[1])
	fp, err := floorplan.Generic(spec)
	if err != nil {
		return nil, spec, err
	}
	pg := floorplan.GenericPackage(fp)
	nx, ny := res.dims()
	// Keep roughly square cells on the larger package.
	if dims[1] > 2 {
		nx = nx * 3 / 2
	}
	cfg := cosim.DefaultConfig()
	cfg.Stack.NX, cfg.Stack.NY = nx, ny
	cfg.Stack.Package = pg
	sys, err := cosim.NewCustomSystem(fp, cfg)
	return sys, spec, err
}

// ResolutionCell is one (grid size, solver) point of the
// resolution-scaling extension: the worst-case full-load steady solve at
// an nx×ny per-layer grid, with the linear-solver effort it took.
type ResolutionCell struct {
	NX, NY   int
	Unknowns int // total cells across the stack's layers
	Solver   string
	// DieMaxC pins the physics: every solver must land on the same field.
	DieMaxC float64
	// OuterIters is the coupled thermal↔thermosyphon fixed-point count.
	OuterIters int
	// LinIters and Applies total the linear iterations (CG iterations or
	// V-cycles) and operator applications over the whole coupled solve.
	LinIters int
	Applies  int
	// WallMS is the wall-clock solve time. Informational: unlike the
	// other fields it naturally varies run to run and is not part of any
	// determinism contract.
	WallMS float64
}

// ExtResolutionScaling sweeps the per-layer grid resolution of the
// standard blade — not the blade count — and solves the same worst-case
// full-load steady state at every size with each requested solver. It is
// the experiment behind the O(n) claim: Jacobi-CG's applies grow with
// grid dimension while MG-PCG's stay flat, so by 256×256 the multigrid
// path wins by well over an order of magnitude in operator work.
// The sizes and solvers axes are explicit — this experiment sweeps
// solvers, so cfg.Solver is ignored. Passing nil selects the default
// sizes {32, 64, 96, 128} and solvers {cg, mgpcg}.
func ExtResolutionScaling(ctx context.Context, cfg RunConfig, sizes []int, solvers []thermal.Solver) ([]ResolutionCell, error) {
	if len(sizes) == 0 {
		sizes = []int{32, 64, 96, 128}
	}
	if len(solvers) == 0 {
		solvers = []thermal.Solver{thermal.SolverCG, thermal.SolverMGPCG}
	}
	bench, cfgW := workload.WorstCase()
	mapping := FullLoadMapping(cfgW, power.POLL)
	points := sweep.Cross(sizes, solvers)
	// Depth-first core split: the biggest grid dominates the study's wall
	// time, so the budget goes to each solve's worker team rather than to
	// sweep fan-out — "all cores inside one big solve".
	cfg = cfg.SplitBudgetDepthFirst(len(points))
	return sweep.Run(ctx, points, func(p sweep.Pair[int, thermal.Solver]) (ResolutionCell, error) {
		n, solver := p.A, p.B
		ccfg := cosim.DefaultConfig()
		ccfg.Stack.NX, ccfg.Stack.NY = n, n
		sys, err := cosim.NewSystem(ccfg)
		if err != nil {
			return ResolutionCell{}, fmt.Errorf("%dx%d: %w", n, n, err)
		}
		ses := sys.NewSession(cosim.WithSolver(solver), cosim.WithThreads(cfg.Threads), cosim.CarryWarmStart(false))
		defer ses.Close()
		start := time.Now()
		die, _, r, err := SolveMappingSession(ctx, ses, bench, mapping, thermosyphon.DefaultOperating())
		if err != nil {
			return ResolutionCell{}, fmt.Errorf("%dx%d/%v: %w", n, n, solver, err)
		}
		wall := time.Since(start)
		stats := ses.SolverStats()
		return ResolutionCell{
			NX: n, NY: n,
			Unknowns:   sys.Thermal.Cells() * sys.Thermal.Layers(),
			Solver:     solver.String(),
			DieMaxC:    die.MaxC,
			OuterIters: r.Iterations,
			LinIters:   stats.Iterations,
			Applies:    stats.Applies,
			WallMS:     float64(wall.Microseconds()) / 1e3,
		}, nil
	}, cfg.Workers)
}

// cached is one die dimension's reusable solve context in the
// scalability study.
type cached struct {
	ses  *cosim.Session
	spec floorplan.GridSpec
}

// scaledCache is the per-worker session cache of the scalability study;
// Close lets the sweep engine release each session's worker team when
// the worker retires.
type scaledCache map[[2]int]*cached

// Close releases every cached session's worker team.
func (c scaledCache) Close() error {
	for _, v := range c {
		v.ses.Close()
	}
	return nil
}

// ExtScalability exercises the mapping rule on a scaled 16-core die (the
// §III note that the evaporator scales with the CPU dimension): half the
// cores run a fixed per-core load, placed either with the generalized
// row-exclusive stagger or clustered into adjacent columns. The staggered
// placement should keep its advantage as the die grows. The four (die,
// mapping) cells run through the sweep pool; each worker caches the custom
// systems (wrapped in non-carrying solve sessions) it builds per die
// dimension.
func ExtScalability(ctx context.Context, cfg RunConfig) ([]ScalabilityCell, error) {
	cells := sweep.Cross([][2]int{{4, 2}, {4, 4}}, []string{"staggered", "clustered"})
	cfg = cfg.SplitBudget(len(cells))
	return sweep.RunState(ctx, cells,
		func() (scaledCache, error) { return scaledCache{}, nil },
		func(cache scaledCache, p sweep.Pair[[2]int, string]) (ScalabilityCell, error) {
			dims, name := p.A, p.B
			c := cache[dims]
			if c == nil {
				sys, spec, err := scaledSystem(dims, cfg.Resolution)
				if err != nil {
					return ScalabilityCell{}, err
				}
				c = &cached{ses: sys.NewSession(cfg.sessionOptions(cosim.CarryWarmStart(false))...), spec: spec}
				cache[dims] = c
			}
			n := dims[0] * dims[1]
			active := n / 2

			var cores []int
			if name == "staggered" {
				cores = floorplan.GenericRowExclusiveOrder(c.spec)[:active]
			} else {
				cores = make([]int, active)
				for i := range cores {
					cores[i] = i // column-major: fills adjacent east columns
				}
			}
			bp := map[string]float64{
				"LLC":     2,
				"MemCtrl": 6.3,
				"Uncore":  7.7,
			}
			activeSet := map[int]bool{}
			for _, core := range cores {
				activeSet[core] = true
			}
			for i := 0; i < n; i++ {
				blk := fmt.Sprintf("Core%d", i+1)
				if activeSet[i] {
					bp[blk] = 7.5 // POLL baseline + heavy dynamic
				} else {
					bp[blk] = 2.0 // C1-parked
				}
			}
			r, err := c.ses.SolveSteadyPower(ctx, bp, thermosyphon.DefaultOperating())
			if err != nil {
				return ScalabilityCell{}, fmt.Errorf("%dx%d/%s: %w", dims[0], dims[1], name, err)
			}
			sys := c.ses.System()
			die, err := sys.DieStats(r)
			if err != nil {
				return ScalabilityCell{}, err
			}
			return ScalabilityCell{
				Cores:     n,
				Mapping:   name,
				Die:       die,
				DryoutPct: float64(r.Syphon.DryoutCells) / float64(sys.Thermal.Cells()),
			}, nil
		},
		cfg.Workers)
}
