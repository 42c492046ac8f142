package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("registry has %d experiments, expected the full paper catalog", len(all))
	}
	names := Names()
	if len(names) != len(all) {
		t.Fatalf("Names() returned %d names for %d experiments", len(names), len(all))
	}
	seen := map[string]bool{}
	for i, e := range all {
		if e.Name == "" || e.Description == "" || e.Run == nil {
			t.Fatalf("experiment %d is not self-describing: %+v", i, e)
		}
		if e.Name == "all" {
			t.Fatal(`"all" is the CLI's run-everything selector, not an experiment name`)
		}
		if e.Name != names[i] {
			t.Fatalf("All()[%d].Name = %q but Names()[%d] = %q", i, e.Name, i, names[i])
		}
		if seen[e.Name] {
			t.Fatalf("duplicate name %q", e.Name)
		}
		seen[e.Name] = true
		got, ok := Lookup(e.Name)
		if !ok || got.Name != e.Name {
			t.Fatalf("Lookup(%q) = %+v, %v", e.Name, got, ok)
		}
	}
	if _, ok := Lookup("definitely-not-registered"); ok {
		t.Fatal("Lookup invented an experiment")
	}
}

// TestRegistryRoundTrip runs every registered experiment at Coarse and
// checks the uniform Result contract: non-empty tables with consistent
// row widths, JSON that parses back into a Result, and markdown with a
// section heading.
func TestRegistryRoundTrip(t *testing.T) {
	cfg := At(Coarse)
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			if e.Name == "faults" {
				// The survival sweep solves the 1000-blade fleet under
				// degraded-mode throttle re-runs — minutes even at Coarse.
				// Its Result contract is covered by TestFaultsResultShape
				// (same checks, synthetic survival points) and the sweep
				// itself by TestFailureSweepDeterministic on a small fleet;
				// CI's faults smoke runs the real thing end to end.
				t.Skip("1000-blade survival sweep; see TestFaultsResultShape")
			}
			r, err := e.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Name != e.Name {
				t.Fatalf("result name %q for experiment %q", r.Name, e.Name)
			}
			if r.Title == "" || r.Resolution != "coarse" {
				t.Fatalf("bad envelope: %+v", r)
			}
			if len(r.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range r.Tables {
				if len(tb.Columns) == 0 || len(tb.Rows) == 0 {
					t.Fatalf("table %q is empty", tb.Name)
				}
				for i, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Fatalf("table %q row %d has %d cells for %d columns", tb.Name, i, len(row), len(tb.Columns))
					}
					// Numbers stay numbers: a column declared with a float
					// precision must never hold strings, so JSON consumers
					// can parse it numerically without special cases.
					for j, cell := range row {
						if tb.Columns[j].Prec >= 0 {
							switch cell.(type) {
							case float64, int:
							default:
								t.Fatalf("table %q row %d col %q: non-numeric cell %T in numeric column", tb.Name, i, tb.Columns[j].Name, cell)
							}
						}
					}
				}
			}
			// JSON round trip.
			data, err := r.JSON()
			if err != nil {
				t.Fatal(err)
			}
			var back Result
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("JSON does not round-trip: %v", err)
			}
			if back.Name != r.Name || len(back.Tables) != len(r.Tables) {
				t.Fatalf("round-tripped result lost structure: %+v", back)
			}
			// Markdown shape.
			md := r.Markdown()
			if !strings.HasPrefix(md, "## ") || !strings.Contains(md, "|") {
				t.Fatalf("markdown missing heading or table:\n%s", md)
			}
		})
	}
}

// TestExperimentCancellation: a pre-cancelled context must abort every
// solving experiment promptly with context.Canceled — the cancellation
// threads from RunConfig through the sweep pool into the coupled solves.
// A run cancelled midway must also release every session's worker team.
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"fig2", "fig3", "tablei", "fig5", "fig6", "tableii", "fig7", "design", "cooling", "scaling", "orientmap", "scalability", "runtime", "datacenter", "diurnal", "faults"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q missing", name)
		}
		start := time.Now()
		_, err := e.Run(ctx, At(Coarse))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("%s: cancelled run took %v", name, el)
		}
	}

	// Mid-run: two workers whose sessions each own a two-thread team.
	before := runtime.NumGoroutine()
	e, _ := Lookup("tableii")
	ctx, cancel = context.WithCancel(context.Background())
	stop := time.AfterFunc(20*time.Millisecond, cancel)
	defer stop.Stop()
	_, err := e.Run(ctx, RunConfig{Resolution: Coarse, Workers: 2, Threads: 2})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("tableii cancelled mid-run: err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after the cancelled run", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRegistryNilContext: every registered experiment must honor the
// repo-wide "nil ctx means not cancellable" convention — quick entries
// run to completion, none panic. Only the two cheap pure-model entries
// are executed; the rest share the nil-tolerant sweep/cosim layers the
// round-trip test already exercises.
func TestRegistryNilContext(t *testing.T) {
	for _, name := range []string{"fig3", "tablei"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q missing", name)
		}
		r, err := e.Run(nil, At(Coarse))
		if err != nil || r == nil {
			t.Fatalf("%s with nil ctx: %v, %v", name, r, err)
		}
	}
}

func TestParseResolution(t *testing.T) {
	for s, want := range map[string]Resolution{
		"coarse": Coarse,
		"medium": Medium,
		"full":   Full,
	} {
		got, err := ParseResolution(s)
		if err != nil || got != want {
			t.Fatalf("ParseResolution(%q) = %v, %v", s, got, err)
		}
		// Round trip through String.
		back, err := ParseResolution(got.String())
		if err != nil || back != got {
			t.Fatalf("round trip %v failed", got)
		}
	}
	if _, err := ParseResolution("nope"); err == nil {
		t.Fatal("expected error for unknown resolution")
	}
}

func TestResolutionGrid(t *testing.T) {
	for _, res := range []Resolution{Coarse, Medium, Full} {
		g := res.Grid()
		if g.NX <= 0 || g.NY <= 0 || g.DX <= 0 || g.DY <= 0 {
			t.Fatalf("Grid(%v) = %+v", res, g)
		}
	}
}
