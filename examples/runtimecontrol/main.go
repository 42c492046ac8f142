// Runtimecontrol exercises the paper's runtime loop (§VII): a transient
// warm-up of the blade followed by a synthetic thermal emergency that the
// controller resolves by opening the water valve first and only touching
// DVFS when the valve is exhausted.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout, experiments.Coarse); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, res experiments.Resolution) error {
	sys, err := experiments.NewSystem(thermosyphon.DefaultDesign(), res)
	if err != nil {
		return err
	}
	bench, err := workload.ByName("x264")
	if err != nil {
		return err
	}
	mapping, err := core.Plan(bench, workload.QoS1x)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s @1x → %v on cores %v\n\n", bench.Name, mapping.Config, mapping.ActiveCores)

	// Transient warm-up: march the RC network from a cold start with the
	// converged boundary, watching the die approach steady state.
	st := core.PackageState(bench, mapping)
	op := thermosyphon.DefaultOperating()
	res2, err := sys.NewSession().SolveSteady(context.Background(), st, op)
	if err != nil {
		return err
	}
	steadyDie, err := sys.DieStats(res2)
	if err != nil {
		return err
	}
	powerCells, err := sys.PowerCells(res2.BlockPower)
	if err != nil {
		return err
	}
	ws := sys.Thermal.NewWorkspace()
	field := sys.Thermal.UniformField(30)
	fmt.Fprintln(w, "transient warm-up (0.5 s steps):")
	for step := 1; step <= 10; step++ {
		if err := ws.StepTransientLayersInto(field, field, 0.5, [][]float64{powerCells}, res2.BC); err != nil {
			return err
		}
		temps, err := field.LayerByName(thermal.LayerDie)
		if err != nil {
			return err
		}
		max := temps[0]
		for _, t := range temps {
			if t > max {
				max = t
			}
		}
		fmt.Fprintf(w, "  t=%4.1fs die θmax %.1f °C (steady %.1f)\n", float64(step)*0.5, max, steadyDie.MaxC)
	}

	// Synthetic emergency: clamp the case-temperature limit just below
	// the current operating point and let the controller react.
	fmt.Fprintln(w, "\nruntime regulation under a synthetic emergency:")
	ctl := sched.NewController(sys)
	out, err := ctl.Regulate(nil, bench, mapping, workload.QoS1x)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  nominal: TCASE %.1f °C, no action needed (%d actions)\n", out.TCase, len(out.Actions))

	ctl2 := sched.NewController(sys)
	ctl2.TCaseLimit = out.TCase - 2
	out2, err := ctl2.Regulate(nil, bench, mapping, workload.QoS1x)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  with limit %.1f °C the controller acted %d times:\n", ctl2.TCaseLimit, len(out2.Actions))
	for _, a := range out2.Actions {
		switch a.Kind {
		case "flow":
			fmt.Fprintf(w, "    valve → %.0f kg/h\n", a.FlowKgH)
		case "dvfs":
			fmt.Fprintf(w, "    frequency → %.1f GHz\n", float64(a.Freq))
		}
	}
	fmt.Fprintf(w, "  final: TCASE %.1f °C at %.0f kg/h (emergency=%v)\n",
		out2.TCase, out2.Op.WaterFlowKgH, out2.Emergency)
	return nil
}
