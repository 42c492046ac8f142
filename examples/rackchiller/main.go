// Rackchiller demonstrates the rack-level constraint of §V: a whole PARSEC
// mix is allocated across four CPU blades that share one chiller water
// loop, the blade heats are simulated, and the shared-loop cooling cost is
// compared between a balanced and a skewed allocation.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/experiments"
	"repro/internal/rack"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout, experiments.Coarse); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, res experiments.Resolution) error {
	// Submit the full PARSEC roster at 2x QoS.
	var apps []rack.App
	for _, b := range workload.All() {
		apps = append(apps, rack.App{Bench: b, QoS: workload.QoS2x})
	}

	const nBlades = 4
	assignments, err := rack.Allocate(apps, nBlades)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "allocated %d apps over %d blades (imbalance %.1f W):\n",
		len(apps), nBlades, rack.Imbalance(assignments))
	for _, a := range assignments {
		fmt.Fprintf(w, "  blade %d (%.1f W):", a.CPU, a.PowerW)
		for _, app := range a.Apps {
			fmt.Fprintf(w, " %s", app.Bench.Name)
		}
		fmt.Fprintln(w)
	}

	// Simulate each blade: run its heaviest app through Algorithm 1 and
	// the coupled solver to get the actual heat into the water loop.
	sys, err := experiments.NewSystem(thermosyphon.DefaultDesign(), res)
	if err != nil {
		return err
	}
	// The session carries no warm start, so every blade solves cold.
	ses := sys.NewSession(cosim.CarryWarmStart(false))
	var bladeHeat []float64
	var hottest float64
	for _, a := range assignments {
		if len(a.Apps) == 0 {
			bladeHeat = append(bladeHeat, 0)
			continue
		}
		app := a.Apps[0] // heaviest first by LPT construction
		m, err := core.Plan(app.Bench, app.QoS)
		if err != nil {
			return err
		}
		die, _, res, err := experiments.SolveMappingSession(context.Background(), ses, app.Bench, m, thermosyphon.DefaultOperating())
		if err != nil {
			return err
		}
		bladeHeat = append(bladeHeat, res.TotalPowerW)
		if die.MaxC > hottest {
			hottest = die.MaxC
		}
		fmt.Fprintf(w, "  blade %d lead app %-13s → %.1f W, die θmax %.1f °C\n",
			a.CPU, app.Bench.Name, res.TotalPowerW, die.MaxC)
	}
	fmt.Fprintf(w, "hottest die in the rack: %.1f °C\n\n", hottest)

	// Cost the shared loop: all blades get the same water temperature
	// (one chiller per rack), so the hottest blade dictates it.
	loop := rack.SharedLoop{SetpointC: 30, PerBladeFlowKgH: 7, AmbientC: 35}
	budget, err := loop.Cost(bladeHeat)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "shared loop at %.0f °C: heat %.1f W, water ΔT %.2f °C, Eq.(1) %.1f W, chiller %.1f W\n",
		loop.SetpointC, budget.HeatW, budget.WaterDeltaT, budget.Eq1PowerW, budget.ChillerPowerW)

	// What if the rack had to run 10 °C colder water because one blade
	// used a thermal-unaware mapping? (§VIII-B's argument at rack scale.)
	cold := rack.SharedLoop{SetpointC: 20, PerBladeFlowKgH: 7, AmbientC: 35}
	coldBudget, err := cold.Cost(bladeHeat)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "same rack at %.0f °C water: chiller %.1f W (%.0f%% more)\n",
		cold.SetpointC, coldBudget.ChillerPowerW,
		(coldBudget.ChillerPowerW/budget.ChillerPowerW-1)*100)
	return nil
}
