package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestSelectExperimentsAllMatchesRegistry(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	names := experiments.Names()
	if len(all) != len(names) {
		t.Fatalf("-exp all selected %d experiments, registry has %d", len(all), len(names))
	}
	// Run order is the registry order itself — there is no second list to
	// drift out of sync.
	for i, e := range all {
		if e.Name != names[i] {
			t.Fatalf("order[%d] = %q, registry order has %q", i, e.Name, names[i])
		}
	}
}

func TestSelectExperimentsByName(t *testing.T) {
	sel, err := selectExperiments("fig6")
	if err != nil || len(sel) != 1 || sel[0].Name != "fig6" {
		t.Fatalf("selectExperiments(fig6) = %v, %v", sel, err)
	}
	sel, err = selectExperiments("tablei, fig3")
	if err != nil || len(sel) != 2 || sel[0].Name != "tablei" || sel[1].Name != "fig3" {
		t.Fatalf("comma selection = %v, %v", sel, err)
	}
	if _, err := selectExperiments("nope"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestRegistryServesPaperCatalog(t *testing.T) {
	// Every experiment the pre-registry dispatch served must stay
	// reachable by its old -exp name.
	for _, name := range []string{"fig2", "fig3", "tablei", "fig5", "fig6", "tableii", "fig7", "cooling", "design", "scaling"} {
		if _, ok := experiments.Lookup(name); !ok {
			t.Fatalf("experiment %q missing from the registry", name)
		}
	}
}

func TestRunTableIText(t *testing.T) {
	var buf bytes.Buffer
	sel, err := selectExperiments("tablei")
	if err != nil {
		t.Fatal(err)
	}
	if err := runSelected(context.Background(), &buf, sel, experiments.At(experiments.Coarse), false, false, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "POLL") {
		t.Fatalf("Table I output wrong:\n%s", out)
	}
}

func TestRunFig6CoarseText(t *testing.T) {
	var buf bytes.Buffer
	sel, err := selectExperiments("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if err := runSelected(context.Background(), &buf, sel, experiments.At(experiments.Coarse), false, false, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 6", "scenario1-staggered", "scenario3-clustered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sel, err := selectExperiments("tablei,fig3")
	if err != nil {
		t.Fatal(err)
	}
	if err := runSelected(context.Background(), &buf, sel, experiments.At(experiments.Coarse), true, false, ""); err != nil {
		t.Fatal(err)
	}
	var results []experiments.Result
	if err := json.Unmarshal(buf.Bytes(), &results); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, buf.String())
	}
	if len(results) != 2 || results[0].Name != "tablei" || results[1].Name != "fig3" {
		t.Fatalf("unexpected results envelope: %+v", results)
	}
	for _, r := range results {
		if len(r.Tables) == 0 || len(r.Tables[0].Rows) == 0 {
			t.Fatalf("%s: empty tables in JSON output", r.Name)
		}
	}
}

func TestRunMapsASCII(t *testing.T) {
	var buf bytes.Buffer
	sel, err := selectExperiments("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if err := runSelected(context.Background(), &buf, sel, experiments.At(experiments.Coarse), false, true, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig2_die:") {
		t.Fatalf("ASCII map header missing:\n%s", buf.String())
	}
}

func TestDirSink(t *testing.T) {
	dir := t.TempDir()
	sel, err := selectExperiments("fig2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runSelected(context.Background(), &buf, sel, experiments.At(experiments.Coarse), false, false, dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig2_die.svg", "fig2_die.csv", "fig2_package.svg", "fig2_package.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("artifact %s missing: %v", f, err)
		}
	}
}
