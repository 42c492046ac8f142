package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sweep"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// Fig6Scenario is one of the three 4-core mappings of Fig. 6.
type Fig6Scenario struct {
	Name   string
	Active []int
}

// Fig6Scenarios returns the paper's three mappings of four active cores:
// scenario 1 staggers one active per row, scenario 2 balances into the
// corners (the conventional policy), scenario 3 clusters a 2×2 block.
func Fig6Scenarios() []Fig6Scenario {
	mk := func(name string, slots ...[2]int) Fig6Scenario {
		s := Fig6Scenario{Name: name}
		for _, rc := range slots {
			s.Active = append(s.Active, floorplan.CoreAtGridPos(rc[0], rc[1]))
		}
		sort.Ints(s.Active)
		return s
	}
	return []Fig6Scenario{
		mk("scenario1-staggered", [2]int{0, 0}, [2]int{1, 1}, [2]int{2, 0}, [2]int{3, 1}),
		mk("scenario2-corners", [2]int{0, 0}, [2]int{0, 1}, [2]int{3, 0}, [2]int{3, 1}),
		mk("scenario3-clustered", [2]int{0, 0}, [2]int{0, 1}, [2]int{1, 0}, [2]int{1, 1}),
	}
}

// Fig6Result is one (scenario, idle state) cell of the Fig. 6d table.
type Fig6Result struct {
	Scenario string
	Idle     power.CState
	Die      metrics.MapStats
}

// Fig6MappingScenarios reproduces Fig. 6: the three mappings under POLL and
// C1 idle states, reporting die hot spot, average, and maximum gradient.
// The paper's headline ordering: with POLL the corner balancing (scenario
// 2) wins; with C1 the staggered mapping (scenario 1) wins; the clustered
// mapping (scenario 3) is always worst. All six cells share one design, so
// each sweep worker builds a single solve session and reuses its system
// and workspace across every cell it claims.
func Fig6MappingScenarios(ctx context.Context, cfg RunConfig) ([]Fig6Result, error) {
	// A mid-roster benchmark at (4,8,fmax), per the paper's setup of four
	// loaded cores.
	bench, err := workload.ByName("facesim")
	if err != nil {
		return nil, err
	}
	wcfg := workload.Config{Cores: 4, Threads: 8, Freq: power.FMax}
	cells := sweep.Cross([]power.CState{power.POLL, power.C1}, Fig6Scenarios())
	cfg = cfg.SplitBudget(len(cells))
	return sweep.RunState(ctx, cells,
		func() (*cosim.Session, error) { return cfg.NewSweepSession(thermosyphon.DefaultDesign()) },
		func(ses *cosim.Session, p sweep.Pair[power.CState, Fig6Scenario]) (Fig6Result, error) {
			idle, sc := p.A, p.B
			m := core.Mapping{ActiveCores: sc.Active, IdleState: idle, Config: wcfg}
			die, _, _, err := SolveMappingSession(ctx, ses, bench, m, thermosyphon.DefaultOperating())
			if err != nil {
				return Fig6Result{}, fmt.Errorf("%s/%v: %w", sc.Name, idle, err)
			}
			return Fig6Result{Scenario: sc.Name, Idle: idle, Die: die}, nil
		},
		cfg.Workers)
}
