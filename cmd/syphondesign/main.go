// Command syphondesign runs the §VI design-space exploration: the
// orientation study, the refrigerant × filling-ratio sweep, and the water
// operating-point selection, printing the chosen design.
//
// Usage:
//
//	syphondesign -res medium
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/render"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

func main() {
	resFlag := flag.String("res", "medium", "thermal resolution: coarse|medium|full")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = auto; unset cores from the GOMAXPROCS budget flow to -threads)")
	threads := flag.Int("threads", 0, "intra-solve threads per solve session (0 = auto-split GOMAXPROCS with -workers; set both to 1 for a fully serial run)")
	flag.Parse()
	res, err := experiments.ParseResolution(*resFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "syphondesign:", err)
		os.Exit(1)
	}
	cfg := experiments.RunConfig{Resolution: res, Workers: *workers, Threads: *threads}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "syphondesign:", err)
		os.Exit(1)
	}
}

func run(cfg experiments.RunConfig) error {
	fmt.Println("== Orientation study (§VI-A)")
	ors, err := experiments.Fig5Orientation(nil, cfg)
	if err != nil {
		return err
	}
	var rows [][]string
	bestIdx := 0
	for i, r := range ors {
		rows = append(rows, []string{
			r.Orientation.String(),
			strconv.FormatFloat(r.Die.MaxC, 'f', 1, 64),
			strconv.FormatFloat(r.Pkg.MaxC, 'f', 1, 64),
		})
		if r.Die.MaxC < ors[bestIdx].Die.MaxC {
			bestIdx = i
		}
	}
	if err := render.Table(os.Stdout, []string{"orientation", "die θmax", "pkg θmax"}, rows); err != nil {
		return err
	}
	fmt.Printf("chosen orientation: %v\n\n", ors[bestIdx].Orientation)

	fmt.Println("== Refrigerant × filling ratio (§VI-B) and water point (§VI-C)")
	ds, err := experiments.DesignSpaceStudy(nil, cfg)
	if err != nil {
		return err
	}
	rows = rows[:0]
	for _, p := range ds.Points {
		rows = append(rows, []string{
			p.Fluid,
			strconv.FormatFloat(p.FillingRatio, 'f', 2, 64),
			strconv.FormatFloat(p.DieMaxC, 'f', 1, 64),
			strconv.FormatFloat(p.TCaseC, 'f', 1, 64),
			strconv.Itoa(p.DryoutCells),
		})
	}
	if err := render.Table(os.Stdout, []string{"fluid", "fill", "die θmax", "TCASE", "dryout"}, rows); err != nil {
		return err
	}
	fmt.Printf("chosen charge: %s at %.0f%% fill\n", ds.Best.Fluid, ds.Best.FillingRatio*100)
	fmt.Printf("chosen water point: %.0f kg/h @ %.0f °C (TCASE %.1f °C against the 85 °C limit)\n\n",
		ds.WaterSelection.FlowKgH, ds.WaterSelection.WaterInC, ds.WaterSelection.TCaseC)

	return channelView(cfg.Resolution)
}

// channelView prints the per-channel dryout picture of the chosen design
// under the worst case: where along the evaporator the critical quality is
// crossed, per orientation.
func channelView(res experiments.Resolution) error {
	fmt.Println("== Worst-channel view under the worst-case workload")
	bench, cfg := workload.WorstCase()
	m := experiments.FullLoadMapping(cfg, power.POLL)
	for _, o := range thermosyphon.Orientations() {
		d := thermosyphon.DefaultDesign()
		d.Orientation = o
		sys, err := experiments.NewSystem(d, res)
		if err != nil {
			return err
		}
		st := core.PackageState(bench, m)
		result, err := sys.NewSession().SolveSteady(nil, st, thermosyphon.DefaultOperating())
		if err != nil {
			return err
		}
		heat := result.Field.TopHeatPerCell(result.BC)
		report, err := d.ChannelReport(sys.Thermal.Grid(), heat, thermosyphon.DefaultOperating())
		if err != nil {
			return err
		}
		worst, err := thermosyphon.WorstChannel(report)
		if err != nil {
			return err
		}
		dry := "none"
		if worst.DryoutPos < 1 {
			dry = fmt.Sprintf("at %.0f%% of the channel", worst.DryoutPos*100)
		}
		fmt.Printf("  %-12v worst channel #%d: %.1f W, exit quality %.2f, dryout %s\n",
			o, worst.Channel, worst.HeatW, worst.ExitQuality, dry)
	}
	return nil
}
