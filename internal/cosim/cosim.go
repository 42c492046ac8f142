// Package cosim couples the thermal RC-network model with the two-phase
// thermosyphon model: the evaporator's local heat-transfer coefficients
// depend on the heat-flux distribution, which depends on the temperature
// field, which depends on the coefficients. The coupling is resolved by a
// damped fixed-point iteration, mirroring the co-simulation the paper runs
// between 3D-ICE and the thermosyphon framework of [8].
package cosim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// System bundles the CPU package, its power model, the thermal stack and a
// thermosyphon design into one simulated server blade.
type System struct {
	FP       *floorplan.Floorplan
	Power    *power.Model
	Thermal  *thermal.Model
	Design   thermosyphon.Design
	coverage *floorplan.CoverageMap
	dieRect  floorplan.Rect
	dieMask  []bool

	// refMu guards refFlux, the per-watt top flux that seeds every cold
	// solve (see referenceFlux); nil until the first one runs.
	refMu   sync.Mutex
	refFlux []float64
}

// Config parameterizes system construction.
type Config struct {
	Design thermosyphon.Design
	Stack  thermal.XeonStackConfig
	Env    thermal.Environment
}

// DefaultConfig returns the paper's design point at the default resolution.
func DefaultConfig() Config {
	return Config{
		Design: thermosyphon.DefaultDesign(),
		Stack:  thermal.DefaultXeonStackConfig(),
		Env:    thermal.DefaultEnvironment(),
	}
}

// NewSystem assembles a simulated blade for the given configuration.
func NewSystem(cfg Config) (*System, error) {
	fp := floorplan.BroadwellEP()
	sys, err := NewCustomSystem(fp, cfg)
	if err != nil {
		return nil, err
	}
	pm, err := power.NewModel(fp)
	if err != nil {
		return nil, err
	}
	sys.Power = pm
	return sys, nil
}

// NewCustomSystem assembles a blade around an arbitrary die floorplan
// (e.g. a scaled 16-core variant from floorplan.Generic). The package
// geometry comes from cfg.Stack.Package and must enclose the die. The
// returned system has no Xeon power model: solve it with
// Session.SolveSteadyPower and explicit per-block powers.
func NewCustomSystem(fp *floorplan.Floorplan, cfg Config) (*System, error) {
	stack := thermal.NewXeonStack(cfg.Stack)
	tm, err := thermal.NewModel(stack, cfg.Env)
	if err != nil {
		return nil, err
	}
	if err := cfg.Design.Validate(); err != nil {
		return nil, err
	}
	die := cfg.Stack.Package.DieRectOnPackage()
	if die.W <= 0 || die.H <= 0 || die.X < 0 || die.Y < 0 ||
		die.X+die.W > cfg.Stack.Package.Width || die.Y+die.H > cfg.Stack.Package.Height {
		return nil, fmt.Errorf("cosim: die outline %+v does not fit the package", die)
	}
	// Rasterize die blocks onto the package grid: shift the grid origin so
	// cell rectangles are expressed in the die-local frame.
	rasterGrid := stack.Grid
	rasterGrid.OriginX = -cfg.Stack.Package.DieOffsetX
	rasterGrid.OriginY = -cfg.Stack.Package.DieOffsetY
	cov := floorplan.Rasterize(fp, rasterGrid)

	return &System{
		FP:       fp,
		Thermal:  tm,
		Design:   cfg.Design,
		coverage: cov,
		dieRect:  die,
		dieMask:  metrics.RectMask(stack.Grid, die),
	}, nil
}

// DieRect returns the die outline in package-grid coordinates.
func (s *System) DieRect() floorplan.Rect { return s.dieRect }

// DieMask returns the die-footprint cell mask on the package grid.
// The returned slice must not be modified.
func (s *System) DieMask() []bool { return s.dieMask }

// Result is a converged steady-state co-simulation.
type Result struct {
	Field       *thermal.Field
	Syphon      *thermosyphon.State
	BlockPower  map[string]float64
	TotalPowerW float64
	Iterations  int
	// BC is the converged top boundary used for the final solve.
	BC thermal.TopBoundary
}

// PowerCells rasterizes a per-block power map onto the thermal grid's die
// layer — the injection vector transient simulations need.
func (s *System) PowerCells(blockPower map[string]float64) ([]float64, error) {
	return s.coverage.PowerMapInto(nil, blockPower)
}

// DieStats returns the paper's die-map statistics for a result.
func (s *System) DieStats(r *Result) (metrics.MapStats, error) {
	temps, err := r.Field.LayerByName(thermal.LayerDie)
	if err != nil {
		return metrics.MapStats{}, err
	}
	return metrics.AnalyzeMasked(s.Thermal.Grid(), temps, s.dieMask)
}

// PackageStats returns statistics over the heat-spreader (package) map.
func (s *System) PackageStats(r *Result) (metrics.MapStats, error) {
	temps, err := r.Field.LayerByName(thermal.LayerSpreader)
	if err != nil {
		return metrics.MapStats{}, err
	}
	return metrics.Analyze(s.Thermal.Grid(), temps)
}

// BlockTemp is the temperature summary of one floorplan block on the die
// layer: the block-area-weighted mean and the hottest cell the block
// touches. thermservd's steady responses carry it as is.
type BlockTemp struct {
	Name  string  `json:"name"`
	MeanC float64 `json:"mean_c"`
	MaxC  float64 `json:"max_c"`
}

// BlockTemps summarizes the die-layer temperatures of a result per
// floorplan block, in floorplan order (deterministic — the order blocks
// were rasterized in, never map order). Cells are weighted by the area
// fraction of the block they carry, so a block straddling cell boundaries
// is averaged exactly the same way its power was spread.
func (s *System) BlockTemps(r *Result) ([]BlockTemp, error) {
	temps, err := r.Field.LayerByName(thermal.LayerDie)
	if err != nil {
		return nil, err
	}
	blocks := s.coverage.Blocks()
	out := make([]BlockTemp, 0, len(blocks))
	for _, name := range blocks {
		frac := s.coverage.BlockFraction(name)
		var wsum, tsum float64
		max := math.Inf(-1)
		for i, f := range frac {
			if f <= 0 {
				continue
			}
			wsum += f
			tsum += f * temps[i]
			if temps[i] > max {
				max = temps[i]
			}
		}
		bt := BlockTemp{Name: name}
		if wsum > 0 {
			bt.MeanC = tsum / wsum
			bt.MaxC = max
		}
		out = append(out, bt)
	}
	return out, nil
}

// TCase returns the case temperature: the heat-spreader temperature at the
// package center, the sensor location of the TCASE_MAX constraint (§VI-B).
func (s *System) TCase(r *Result) float64 {
	g := s.Thermal.Grid()
	l := s.Thermal.Stack.LayerIndex(thermal.LayerSpreader)
	return r.Field.SampleAt(l, g.DX*float64(g.NX)/2, g.DY*float64(g.NY)/2)
}

// DieTemps returns the die-layer temperature slice of a result.
func (s *System) DieTemps(r *Result) []float64 {
	t, err := r.Field.LayerByName(thermal.LayerDie)
	if err != nil {
		panic("cosim: die layer missing from canonical stack: " + err.Error())
	}
	return t
}
