package experiments

import (
	"context"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// Approach identifies one policy stack of Table II.
type Approach int

// The three compared stacks.
const (
	// Proposed is this paper: workload-aware design + Algorithm 1.
	Proposed Approach = iota
	// SoACoskun is [8]+[27]+[9]: Seuret design, Pack&Cap selection,
	// Coskun corner balancing.
	SoACoskun
	// SoASabry is [8]+[27]+[7]: Seuret design, Pack&Cap selection,
	// Sabry inlet-first mapping.
	SoASabry
)

// String names the approach the way Table II does.
func (a Approach) String() string {
	switch a {
	case Proposed:
		return "Proposed"
	case SoACoskun:
		return "[8]+[27]+[9]"
	case SoASabry:
		return "[8]+[27]+[7]"
	default:
		return fmt.Sprintf("approach(%d)", int(a))
	}
}

// Approaches lists the Table II rows in paper order.
func Approaches() []Approach { return []Approach{Proposed, SoACoskun, SoASabry} }

// Design returns the thermosyphon design an approach runs on.
func (a Approach) Design() thermosyphon.Design {
	if a == Proposed {
		return thermosyphon.DefaultDesign()
	}
	return baselines.SeuretDesign()
}

// Plan runs the approach's configuration selection and mapping.
func (a Approach) Plan(b workload.Benchmark, q workload.QoS) (core.Mapping, error) {
	switch a {
	case Proposed:
		return core.Plan(b, q)
	case SoACoskun:
		cfg, err := baselines.PackAndCapConfig(b, q)
		if err != nil {
			return core.Mapping{}, err
		}
		return baselines.CoskunMapping(b, cfg)
	case SoASabry:
		cfg, err := baselines.PackAndCapConfig(b, q)
		if err != nil {
			return core.Mapping{}, err
		}
		return baselines.SabryMapping(b, cfg, a.Design().Orientation)
	default:
		return core.Mapping{}, fmt.Errorf("experiments: unknown approach %d", int(a))
	}
}

// TableIIRow is one (approach, QoS) row: benchmark-averaged die and package
// hot spots and maximum gradients, as in the paper's Table II.
type TableIIRow struct {
	Approach Approach
	QoS      workload.QoS
	// Benchmark-averaged statistics.
	DieMaxC, DieGradCPerMM float64
	PkgMaxC, PkgGradCPerMM float64
	// AvgPowerW is the benchmark-averaged package power, which drives the
	// cooling-power comparison.
	AvgPowerW float64
	// Benchmarks is the number of workloads averaged.
	Benchmarks int
}

// TableIIPolicyComparison reproduces Table II over the given benchmarks
// (nil = the full PARSEC roster) at the three QoS levels. Every (approach,
// QoS, benchmark) cell is an independent plan + co-simulation, so the
// full 117-solve grid fans out across the sweep pool; each worker lazily
// builds and reuses one solve session per approach, amortizing the system
// and the solver workspace over all the cells it claims. The cells come
// back in input order, so the per-row averages accumulate in exactly the
// serial order and the rows are bit-identical to the sequential sweep
// (the sessions do not carry warm starts across cells for that reason).
func TableIIPolicyComparison(ctx context.Context, cfg RunConfig, benches []workload.Benchmark) ([]TableIIRow, error) {
	if benches == nil {
		benches = workload.All()
	}
	qosLevels := []workload.QoS{workload.QoS1x, workload.QoS2x, workload.QoS3x}
	type cellKey struct {
		a Approach
		q workload.QoS
		b workload.Benchmark
	}
	type cellVal struct {
		die, pkg metrics.MapStats
		powerW   float64
	}
	var cells []cellKey
	for _, a := range Approaches() {
		for _, q := range qosLevels {
			for _, b := range benches {
				cells = append(cells, cellKey{a: a, q: q, b: b})
			}
		}
	}
	cfg = cfg.SplitBudget(len(cells))
	vals, err := sweep.RunState(ctx, cells,
		func() (sessionCache[Approach], error) { return sessionCache[Approach]{}, nil },
		func(sessions sessionCache[Approach], c cellKey) (cellVal, error) {
			ses := sessions[c.a]
			if ses == nil {
				var err error
				ses, err = cfg.NewSweepSession(c.a.Design())
				if err != nil {
					return cellVal{}, err
				}
				sessions[c.a] = ses
			}
			m, err := c.a.Plan(c.b, c.q)
			if err != nil {
				return cellVal{}, fmt.Errorf("%v @%s %s: %w", c.a, c.q, c.b.Name, err)
			}
			die, pkg, r, err := SolveMappingSession(ctx, ses, c.b, m, thermosyphon.DefaultOperating())
			if err != nil {
				return cellVal{}, fmt.Errorf("%v @%s %s: %w", c.a, c.q, c.b.Name, err)
			}
			return cellVal{die: die, pkg: pkg, powerW: r.TotalPowerW}, nil
		},
		cfg.Workers)
	if err != nil {
		return nil, err
	}

	var rows []TableIIRow
	i := 0
	for _, a := range Approaches() {
		for _, q := range qosLevels {
			row := TableIIRow{Approach: a, QoS: q}
			for range benches {
				v := vals[i]
				i++
				row.DieMaxC += v.die.MaxC
				row.DieGradCPerMM += v.die.MaxGradCPerMM
				row.PkgMaxC += v.pkg.MaxC
				row.PkgGradCPerMM += v.pkg.MaxGradCPerMM
				row.AvgPowerW += v.powerW
				row.Benchmarks++
			}
			n := float64(row.Benchmarks)
			row.DieMaxC /= n
			row.DieGradCPerMM /= n
			row.PkgMaxC /= n
			row.PkgGradCPerMM /= n
			row.AvgPowerW /= n
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig7Result holds the sample die maps of Fig. 7: proposed vs state of the
// art under 2x QoS degradation. The paper reports 71.5 °C vs 78.2 °C.
type Fig7Result struct {
	ProposedMap, SoAMap []float64
	ProposedMax, SoAMax float64
	ProposedBench       string
	Grid                struct{ NX, NY int }
}

// Fig7ThermalMaps regenerates the Fig. 7 pair of die thermal maps using a
// representative benchmark at 2x QoS.
func Fig7ThermalMaps(ctx context.Context, cfg RunConfig) (*Fig7Result, error) {
	bench, err := workload.ByName("freqmine")
	if err != nil {
		return nil, err
	}
	const q = workload.QoS2x
	out := &Fig7Result{ProposedBench: bench.Name}
	cfg = cfg.SplitBudgetDepthFirst(1)
	for _, a := range []Approach{Proposed, SoACoskun} {
		ses, err := cfg.NewSweepSession(a.Design())
		if err != nil {
			return nil, err
		}
		defer ses.Close()
		m, err := a.Plan(bench, q)
		if err != nil {
			return nil, err
		}
		die, _, r, err := SolveMappingSession(ctx, ses, bench, m, thermosyphon.DefaultOperating())
		if err != nil {
			return nil, err
		}
		sys := ses.System()
		dieMap := append([]float64(nil), sys.DieTemps(r)...)
		if a == Proposed {
			out.ProposedMap, out.ProposedMax = dieMap, die.MaxC
			out.Grid.NX, out.Grid.NY = sys.Thermal.Grid().NX, sys.Thermal.Grid().NY
		} else {
			out.SoAMap, out.SoAMax = dieMap, die.MaxC
		}
	}
	return out, nil
}
