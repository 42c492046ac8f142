// Command paperbench regenerates the paper's tables and figures. Every
// experiment it serves comes from the experiments registry, so the
// command is a generic renderer: -list enumerates what is available,
// -exp selects by registry name (or "all", in registry order), -json
// emits the structured results for machine use, and -outdir captures
// SVG/CSV map artifacts.
//
// Usage:
//
//	paperbench -list
//	paperbench -exp all -res medium
//	paperbench -exp fig7 -res full -maps
//	paperbench -exp all -res coarse -json
//	paperbench -exp design -res full -workers 8 -timeout 10m
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/thermal"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: a registry name from -list, a comma-separated list, or all")
	resFlag := flag.String("res", "medium", "thermal resolution: coarse|medium|full")
	list := flag.Bool("list", false, "list the registered experiments and exit")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array instead of text")
	maps := flag.Bool("maps", false, "print ASCII thermal maps where available")
	out := flag.String("outdir", "", "directory for SVG/CSV map artifacts of a run, not of a -report (optional)")
	reportPath := flag.String("report", "", "write a markdown reproduction report of the -exp selection to this file and exit")
	solverFlag := flag.String("solver", "cg", "thermal linear solver for every experiment: cg|mgpcg")
	faultFlag := flag.String("fault", "", "cooling-fault scenario, e.g. pump:0.5 or pump:0.4,fouling:0.3:loop0 (the faults experiment adds it to its sweep)")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = auto; unset cores from the GOMAXPROCS budget flow to -threads)")
	threads := flag.Int("threads", 0, "intra-solve threads per solve session (0 = auto-split GOMAXPROCS with -workers; set both to 1 for a fully serial run)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.Name, e.Description)
		}
		return
	}

	solver, err := thermal.ParseSolver(*solverFlag)
	if err != nil {
		fatal(err)
	}
	res, err := experiments.ParseResolution(*resFlag)
	if err != nil {
		fatal(err)
	}
	cfg := experiments.RunConfig{Resolution: res, Solver: solver, Workers: *workers, Threads: *threads}
	if *faultFlag != "" {
		sc, err := faults.Parse(*faultFlag)
		if err != nil {
			fatal(err)
		}
		cfg.Scenario = &sc
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}

	ctx, cancel := experiments.WithTimeout(context.Background(), *timeout)
	defer cancel()

	selected, err := selectExperiments(*exp)
	if err != nil {
		fatal(err)
	}

	if *reportPath != "" {
		md, err := report.Generate(ctx, cfg, selected)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*reportPath, []byte(md), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *reportPath)
		return
	}

	if err := runSelected(ctx, os.Stdout, selected, cfg, *jsonOut, *maps, *out); err != nil {
		fatal(err)
	}
}

// selectExperiments resolves the -exp flag against the registry: "all"
// runs everything in registration order, so the run order can never drift
// from the registered set.
func selectExperiments(flagVal string) ([]experiments.Experiment, error) {
	if flagVal == "all" {
		return experiments.All(), nil
	}
	var out []experiments.Experiment
	for _, name := range strings.Split(flagVal, ",") {
		name = strings.TrimSpace(name)
		e, ok := experiments.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (see -list; registered: %s)",
				name, strings.Join(experiments.Names(), ", "))
		}
		out = append(out, e)
	}
	return out, nil
}

// runSelected runs the experiments and renders their results — one JSON
// array, or per-experiment text with optional ASCII maps. Timing lines go
// to stderr in JSON mode so stdout stays parseable. A non-empty outdir
// receives each experiment's maps as SVG/CSV files once it finishes.
func runSelected(ctx context.Context, w io.Writer, selected []experiments.Experiment, cfg experiments.RunConfig, jsonOut, maps bool, outdir string) error {
	var results []*experiments.Result
	for _, e := range selected {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		r, err := e.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if outdir != "" {
			for _, m := range r.Maps {
				if err := saveMap(outdir, m); err != nil {
					return err
				}
			}
		}
		if jsonOut {
			results = append(results, r)
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.Name, elapsed)
			continue
		}
		if err := r.WriteText(w); err != nil {
			return err
		}
		if maps {
			for _, m := range r.Maps {
				fmt.Fprintf(w, "%s:\n", m.Name)
				if err := render.ASCIIMap(w, m.Grid(), m.CellC); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(w, "[%s done in %v]\n\n", e.Name, elapsed)
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	return nil
}

// saveMap writes a map artifact as an SVG heat map and a CSV grid in
// dir.
func saveMap(dir string, m experiments.MapArtifact) error {
	svg, err := os.Create(filepath.Join(dir, m.Name+".svg"))
	if err != nil {
		return err
	}
	if err := render.SVGMap(svg, m.Grid(), m.CellC, render.SVGOptions{}); err != nil {
		svg.Close()
		return err
	}
	if err := svg.Close(); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(dir, m.Name+".csv"))
	if err != nil {
		return err
	}
	if err := render.CSVMap(csv, m.Grid(), m.CellC); err != nil {
		csv.Close()
		return err
	}
	return csv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}
