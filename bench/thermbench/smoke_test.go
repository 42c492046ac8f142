package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWorkloadsEndToEnd runs every workload for one second against a
// real daemon built from this repository and requires each to pass its
// correctness gates and to measure every metric BENCHMARK.json lists.
// Without -short the runs are traced, which covers the per-layer metrics.
func TestWorkloadsEndToEnd(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range sp.Workloads {
		specNames = append(specNames, w.Name)
	}
	if len(names) != len(specNames) {
		t.Fatalf("harness runs %v, BENCHMARK.json lists %v", names, specNames)
	}
	for i := range names {
		if names[i] != specNames[i] {
			t.Fatalf("harness runs %v, BENCHMARK.json lists %v", names, specNames)
		}
	}

	var out io.Writer = io.Discard
	if testing.Verbose() {
		out = os.Stdout
	}
	trace := !testing.Short()
	results, err := runWorkloads(context.Background(), root, t.TempDir(), names, 1, 1, trace, out)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.correct() {
			t.Errorf("%s: %d of %d failed: %v", r.workload, r.failed, r.attempted, r.problems)
		}
	}
	want := sp.EndToEnd
	if trace {
		want = append(want, sp.PerLayer...)
	}
	for _, r := range results {
		if _, err := summarize([]*result{r}, want); err != nil {
			t.Error(err)
		}
	}
}
