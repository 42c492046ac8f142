// Designsweep walks the §VI design space of the thermosyphon: evaporator
// orientation, refrigerant choice and filling ratio, all evaluated at the
// worst-case workload, then picks the water operating point — the
// workload- and platform-aware design flow the paper advocates. All three
// grids fan out across the internal/sweep worker pool, which preserves
// input order, so the printed tables match the serial scan exactly. The
// example also demonstrates the context plumbing: one ctx flows from here
// through the sweep pool into the coupled solves, so the whole walk is
// cancellable.
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
	"repro/internal/power"
	"repro/internal/refrigerant"
	"repro/internal/sweep"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

func main() {
	if err := run(context.Background(), os.Stdout, experiments.Coarse); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, w io.Writer, res experiments.Resolution) error {
	bench, cfg := workload.WorstCase()
	fmt.Fprintf(w, "design workload (worst case): %s %v → %.1f W\n\n",
		bench.Name, cfg, bench.PackagePower(cfg, power.POLL))
	mapping := experiments.FullLoadMapping(cfg, power.POLL)

	solve := func(d thermosyphon.Design) (dieMax, pkgMax float64, err error) {
		sys, err := experiments.NewSystem(d, res)
		if err != nil {
			return 0, 0, err
		}
		die, pkg, _, err := experiments.SolveMappingSession(ctx, sys.NewSession(), bench, mapping, thermosyphon.DefaultOperating())
		if err != nil {
			return 0, 0, err
		}
		return die.MaxC, pkg.MaxC, nil
	}

	// Orientation sweep (§VI-A): which edge should the inlet sit on?
	type oTemps struct{ die, pkg float64 }
	oRes, err := sweep.Run(ctx, thermosyphon.Orientations(), func(o thermosyphon.Orientation) (oTemps, error) {
		d := thermosyphon.DefaultDesign()
		d.Orientation = o
		die, pkg, err := solve(d)
		return oTemps{die: die, pkg: pkg}, err
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "orientation sweep:")
	for i, o := range thermosyphon.Orientations() {
		fmt.Fprintf(w, "  %-12v die θmax %.1f °C  pkg θmax %.1f °C\n", o, oRes[i].die, oRes[i].pkg)
	}

	// Refrigerant and filling ratio (§VI-B): dryout vs condenser flooding.
	fills := []float64{0.35, 0.45, 0.55, 0.65, 0.75}
	grid := sweep.Cross(refrigerant.Candidates(), fills)
	dies, err := sweep.Run(ctx, grid, func(p sweep.Pair[*refrigerant.Fluid, float64]) (float64, error) {
		d := thermosyphon.DefaultDesign()
		d.Fluid = p.A
		d.FillingRatio = p.B
		die, _, err := solve(d)
		return die, err
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nrefrigerant × filling ratio sweep (die θmax, °C):")
	fmt.Fprint(w, "  fluid   ")
	for _, fr := range fills {
		fmt.Fprintf(w, "  %4.0f%%", fr*100)
	}
	fmt.Fprintln(w)
	for i, fl := range refrigerant.Candidates() {
		fmt.Fprintf(w, "  %-8s", fl.Name())
		for j := range fills {
			fmt.Fprintf(w, "  %5.1f", dies[i*len(fills)+j])
		}
		fmt.Fprintln(w)
	}

	// Water operating point (§VI-C): lowest flow, warmest water that
	// keeps TCASE below 85 °C — sweep.First scans the grid cheapest-first
	// with one reused session per worker and keeps the serial early exit.
	// The sessions carry no warm start, so every point solves cold and
	// the answer does not depend on which worker claimed it.
	fmt.Fprintln(w, "\nwater operating point selection:")
	d := thermosyphon.DefaultDesign()
	ops := sweep.Cross([]float64{3, 5, 7}, []float64{45, 40, 35, 30})
	i, tc, found, err := sweep.First(ctx, ops,
		func() (*cosim.Session, error) {
			sys, err := experiments.NewSystem(d, res)
			if err != nil {
				return nil, err
			}
			return sys.NewSession(cosim.CarryWarmStart(false)), nil
		},
		func(ses *cosim.Session, p sweep.Pair[float64, float64]) (float64, error) {
			op := thermosyphon.Operating{WaterInC: p.B, WaterFlowKgH: p.A}
			st := core.PackageState(bench, mapping)
			r, err := ses.SolveSteady(ctx, st, op)
			if err != nil {
				return 0, err
			}
			return ses.System().TCase(r), nil
		},
		func(tc float64) bool { return tc < 85 })
	if err != nil {
		return err
	}
	if !found {
		fmt.Fprintln(w, "  no feasible water point found")
		return nil
	}
	fmt.Fprintf(w, "  first feasible: %.0f kg/h @ %.0f °C → TCASE %.1f °C (limit 85)\n",
		ops[i].A, ops[i].B, tc)
	return nil
}
