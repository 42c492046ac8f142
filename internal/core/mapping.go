// Package core implements the paper's primary contribution (§VII,
// Algorithm 1): QoS-aware configuration selection and thermal-aware thread
// mapping tailored to the two-phase thermosyphon.
//
// Configuration selection scans the profiled configurations in ascending
// power order and picks the first that satisfies the application's QoS.
// Thread mapping then chooses which physical cores run the workload, driven
// by the C-state available to idle cores:
//
//   - With deep idle states (C1 or deeper), idle cores draw little power,
//     so actives are staggered one-per-row ("no more than one hot spot on
//     the same horizontal line"): each evaporator channel then carries at
//     most one core's heat and stays clear of dryout.
//   - With POLL idles, idle cores still burn several watts, so the policy
//     falls back to conventional corner balancing, maximizing the spacing
//     between all warm cores.
package core

import (
	"fmt"
	"sort"

	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/workload"
)

// Mapping is a placement decision: which cores run the workload's threads
// and what idle state the remaining cores park in.
type Mapping struct {
	// ActiveCores lists the 0-based core indices chosen, len == Config.Cores.
	ActiveCores []int
	// IdleState is the C-state for inactive cores.
	IdleState power.CState
	// Config is the selected execution configuration.
	Config workload.Config
}

// SelectConfig implements Algorithm 1 lines 2-6: profile the application
// over the configuration space, sort by power ascending, and return the
// cheapest configuration whose QoS exceeds the requirement.
func SelectConfig(p *workload.Profile, q workload.QoS) (workload.Config, error) {
	entries := append([]workload.ProfileEntry(nil), p.Entries...)
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Power < entries[j].Power })
	for _, e := range entries {
		if q.Satisfied(p.Bench, e.Config) {
			return e.Config, nil
		}
	}
	return workload.Config{}, fmt.Errorf("core: no configuration satisfies QoS %s for %s", q, p.Bench.Name)
}

// rowExclusiveOrder fills cores one per grid row first, alternating
// columns, starting at the north-west (the subcooled-inlet side for the
// chosen Design 1), then wraps to the remaining column slots.
var rowExclusiveOrder = buildOrder([][2]int{
	{0, 0}, {1, 1}, {2, 0}, {3, 1}, // one active per horizontal line
	{0, 1}, {1, 0}, {2, 1}, {3, 0},
})

// cornerOrder is the conventional thermal balancing of Coskun et al.:
// corners first, then the remaining mid slots at maximum spacing.
var cornerOrder = buildOrder([][2]int{
	{0, 0}, {3, 1}, {0, 1}, {3, 0},
	{1, 0}, {2, 1}, {1, 1}, {2, 0},
})

func buildOrder(slots [][2]int) []int {
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = floorplan.CoreAtGridPos(s[0], s[1])
	}
	return out
}

// MapThreads implements Algorithm 1 lines 7-8 for one application: choose
// the idle C-state from the application's tolerable delay, then place the
// Nc active cores according to the thermosyphon-aware policy.
func MapThreads(b workload.Benchmark, cfg workload.Config) (Mapping, error) {
	if !cfg.Valid() {
		return Mapping{}, fmt.Errorf("core: invalid configuration %v", cfg)
	}
	idle := power.DeepestStateWithin(b.IdleTolerance)
	order := rowExclusiveOrder
	if idle == power.POLL {
		// Idle cores at POLL draw near-active static power: spreading the
		// actives between warm idles buys nothing, so balance instead.
		order = cornerOrder
	}
	m := Mapping{
		ActiveCores: append([]int(nil), order[:cfg.Cores]...),
		IdleState:   idle,
		Config:      cfg,
	}
	sort.Ints(m.ActiveCores)
	return m, nil
}

// Plan runs the full Algorithm 1 for one application: configuration
// selection followed by thread mapping.
func Plan(b workload.Benchmark, q workload.QoS) (Mapping, error) {
	cfg, err := SelectConfig(workload.NewProfile(b), q)
	if err != nil {
		return Mapping{}, err
	}
	return MapThreads(b, cfg)
}

// PackageState expands a mapping into the power model's package state:
// active cores carry the benchmark's per-core dynamic power, idles park in
// the mapping's C-state, and the uncore follows the benchmark demand.
func PackageState(b workload.Benchmark, m Mapping) power.PackageState {
	st := power.PackageState{
		Freq:       m.Config.Freq,
		UncoreFreq: b.UncoreFreq(m.Config),
		LLC:        b.LLCActivity(m.Config),
	}
	dyn := b.DynPerCore(m.Config)
	for i := range st.Cores {
		st.Cores[i] = power.CoreLoad{Idle: m.IdleState}
	}
	for _, c := range m.ActiveCores {
		st.Cores[c] = power.CoreLoad{Active: true, DynWatts: dyn}
	}
	return st
}

// ActiveRowsHistogram counts active cores per grid row — the quantity the
// mapping policy minimizes the maximum of.
func ActiveRowsHistogram(active []int) [floorplan.CoreRows]int {
	var rows [floorplan.CoreRows]int
	for _, c := range active {
		r, _ := floorplan.CoreGridPos(c)
		rows[r]++
	}
	return rows
}

// MaxActivePerRow returns the largest number of active cores sharing one
// horizontal channel row.
func MaxActivePerRow(active []int) int {
	rows := ActiveRowsHistogram(active)
	max := 0
	for _, n := range rows {
		if n > max {
			max = n
		}
	}
	return max
}
