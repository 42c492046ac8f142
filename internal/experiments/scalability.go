package experiments

import (
	"context"
	"fmt"
	"sync"
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
	// WallMS is the wall-clock solve time, on a fresh session (its
	// first-solve buffer allocations included). Informational: unlike the
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
	// The points run serially through one worker: the biggest grid
	// dominates the study's wall time, so the core budget goes to each
	// solve's worker team rather than to sweep fan-out — "all cores inside
	// one big solve".
	cfg = cfg.SplitBudget(1)
	// One System per size serves every solver's cell. Its first cold
	// solve also computes the System's reference flux, the seed of every
	// cold solve after it, so the size's first cell runs one MG-PCG solve
	// on a session of its own before any cell prices a solve.
	type grid struct {
		once sync.Once
		sys  *cosim.System
		err  error
	}
	grids := make(map[int]*grid, len(sizes))
	for _, n := range sizes {
		grids[n] = &grid{}
	}
	system := func(n int) (*cosim.System, error) {
		g := grids[n]
		g.once.Do(func() {
			ccfg := cosim.DefaultConfig()
			ccfg.Stack.NX, ccfg.Stack.NY = n, n
			if g.sys, g.err = cosim.NewSystem(ccfg); g.err != nil {
				return
			}
			ses := g.sys.NewSession(cosim.WithSolver(thermal.SolverMGPCG), cosim.WithThreads(cfg.Threads))
			defer ses.Close()
			_, _, _, g.err = SolveMappingSession(ctx, ses, bench, mapping, thermosyphon.DefaultOperating())
		})
		return g.sys, g.err
	}
	return sweep.Run(ctx, points, func(p sweep.Pair[int, thermal.Solver]) (ResolutionCell, error) {
		n, solver := p.A, p.B
		sys, err := system(n)
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

// ExtScalability exercises the mapping rule on a scaled 16-core die (the
// §III note that the evaporator scales with the CPU dimension): half the
// cores run a fixed per-core load, placed either with the generalized
// row-exclusive stagger or clustered into adjacent columns. The staggered
// placement should keep its advantage as the die grows. The two custom
// systems, one per die dimension, are built up front with a session pool
// each, and the four (die, mapping) cells run through the sweep pool.
func ExtScalability(ctx context.Context, cfg RunConfig) ([]ScalabilityCell, error) {
	type scaled struct {
		sys  *cosim.System
		pool *cosim.Pool
		spec floorplan.GridSpec
	}
	dimsAxis := [][2]int{{4, 2}, {4, 4}}
	cells := sweep.Cross(dimsAxis, []string{"staggered", "clustered"})
	cfg = cfg.SplitBudget(len(cells))
	systems := make(map[[2]int]scaled, len(dimsAxis))
	for _, dims := range dimsAxis {
		sys, spec, err := scaledSystem(dims, cfg.Resolution)
		if err != nil {
			return nil, err
		}
		pool := cfg.newPool(sys)
		defer pool.Close()
		systems[dims] = scaled{sys: sys, pool: pool, spec: spec}
	}
	return sweep.Run(ctx, cells, func(p sweep.Pair[[2]int, string]) (ScalabilityCell, error) {
		dims, name := p.A, p.B
		c := systems[dims]
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
		ses, err := c.pool.Get(c.sys.Design)
		if err != nil {
			return ScalabilityCell{}, err
		}
		defer c.pool.Put(ses)
		r, err := ses.SolveSteadyPower(ctx, bp, thermosyphon.DefaultOperating())
		if err != nil {
			return ScalabilityCell{}, fmt.Errorf("%dx%d/%s: %w", dims[0], dims[1], name, err)
		}
		die, err := c.sys.DieStats(r)
		if err != nil {
			return ScalabilityCell{}, err
		}
		return ScalabilityCell{
			Cores:     n,
			Mapping:   name,
			Die:       die,
			DryoutPct: float64(r.Syphon.DryoutCells) / float64(c.sys.Thermal.Cells()),
		}, nil
	}, cfg.Workers)
}
