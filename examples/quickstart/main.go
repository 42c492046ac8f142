// Quickstart: run one PARSEC workload through the paper's full pipeline —
// QoS-aware configuration selection (Algorithm 1), thermal-aware thread
// mapping, and the coupled thermosyphon/thermal co-simulation — and print
// the resulting die thermal profile.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/render"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout, experiments.Medium); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, res experiments.Resolution) error {
	// 1. Pick a workload and a QoS constraint (2x degradation allowed).
	bench, err := workload.ByName("ferret")
	if err != nil {
		return err
	}
	const qos = workload.QoS2x

	// 2. Algorithm 1: cheapest configuration meeting the QoS, then the
	// thermosyphon-aware thread mapping.
	mapping, err := core.Plan(bench, qos)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s @%s → config %v, cores %v, idle state %v\n",
		bench.Name, qos, mapping.Config, mapping.ActiveCores, mapping.IdleState)

	// 3. Build the simulated blade: Broadwell-EP die + package stack +
	// the paper's R236fa thermosyphon design, and solve the coupled
	// steady state at the design operating point (7 kg/h water at 30 °C).
	sys, err := experiments.NewSystem(thermosyphon.DefaultDesign(), res)
	if err != nil {
		return err
	}
	die, pkg, result, err := experiments.SolveMappingSession(context.Background(), sys.NewSession(), bench, mapping, thermosyphon.DefaultOperating())
	if err != nil {
		return err
	}

	// 4. Report the paper's metrics and render the die map.
	fmt.Fprintf(w, "package power %.1f W, saturation %.1f °C, exit quality %.2f\n",
		result.TotalPowerW, result.Syphon.Condenser.TsatC, result.Syphon.Loop.ExitQuality)
	fmt.Fprintf(w, "die:     θmax %.1f °C  θavg %.1f °C  ∇θmax %.2f °C/mm\n", die.MaxC, die.MeanC, die.MaxGradCPerMM)
	fmt.Fprintf(w, "package: θmax %.1f °C  θavg %.1f °C  ∇θmax %.2f °C/mm\n", pkg.MaxC, pkg.MeanC, pkg.MaxGradCPerMM)
	return render.ASCIIMap(w, sys.Thermal.Grid(), sys.DieTemps(result))
}
