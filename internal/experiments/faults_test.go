package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
)

// TestFailureScenarioRoster: the sweep must lead with the healthy
// baseline, cover every fault kind at every grid severity, end with the
// pump+fouling composition, and append the caller's custom scenario.
func TestFailureScenarioRoster(t *testing.T) {
	custom := faults.Scenario{Name: "custom", Faults: []faults.Fault{
		{Kind: faults.HTCDrift, Severity: 0.3},
	}}
	scs := failureScenarios(Coarse, &custom)
	want := 1 + len(faults.Kinds())*len(failureSeverities(Coarse)) + 1 + 1
	if len(scs) != want {
		t.Fatalf("%d scenarios, want %d", len(scs), want)
	}
	if scs[0].Name != "healthy" || !scs[0].Empty() {
		t.Fatalf("first scenario = %+v, want the healthy baseline", scs[0])
	}
	if got := scs[len(scs)-1].Name; got != "custom" {
		t.Fatalf("last scenario = %q, want the custom one", got)
	}
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			t.Errorf("scenario %s invalid: %v", sc.Name, err)
		}
	}
	// Without a custom scenario the composition closes the roster.
	scs = failureScenarios(Coarse, nil)
	if got := scs[len(scs)-1].Name; got != "pump:0.6+fouling:0.6" {
		t.Fatalf("roster tail = %q, want the pump+fouling composition", got)
	}
}

// TestFailureSweepDeterministic: the survival sweep must be byte-identical
// between a fully serial run and a pooled workers × threads split — the
// experiments-level guarantee that fault scenarios keep the determinism
// contract. A small fleet keeps the double solve affordable; the serial
// pass doubles as the shape check on the survival rows.
func TestFailureSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("double fleet sweep in -short mode")
	}
	run := func(workers, threads int) []FailurePoint {
		cfg := RunConfig{Resolution: Coarse, Workers: workers, Threads: threads}
		pts, err := failureSweep(context.Background(), cfg, 1, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	serial := run(1, 1)
	if len(serial) == 0 {
		t.Fatal("empty sweep")
	}

	// Survival-row shape: the healthy baseline leads, feasibility implies
	// convergence, and converged infeasibility names its blades.
	if serial[0].Scenario != "healthy" {
		t.Fatalf("first row %q, want healthy", serial[0].Scenario)
	}
	if !serial[0].Feasible || serial[0].ThrottledBlades != 0 {
		t.Fatalf("healthy baseline degraded: %+v", serial[0])
	}
	for _, p := range serial {
		if p.Feasible && !p.Converged {
			t.Errorf("%s: feasible but unconverged", p.Scenario)
		}
		if !p.Feasible && p.Converged && p.InfeasibleBlades == 0 {
			t.Errorf("%s: converged and infeasible but no blades named", p.Scenario)
		}
		if p.PUE <= 1 {
			t.Errorf("%s: PUE %.3f must exceed 1", p.Scenario, p.PUE)
		}
	}

	pooled := run(4, 2)
	if !reflect.DeepEqual(serial, pooled) {
		t.Fatalf("pooled sweep differs from serial:\nserial %+v\npooled %+v", serial, pooled)
	}
}

// TestFaultsResultShape: the survival renderer must satisfy the uniform
// Result contract (the same checks TestRegistryRoundTrip applies — that
// test skips the faults experiment because the real sweep solves the
// 1000-blade fleet). Synthetic points stand in for the solve.
func TestFaultsResultShape(t *testing.T) {
	points := []FailurePoint{
		{Scenario: "healthy", Feasible: true, Converged: true, OuterIterations: 6,
			ITPowerW: 73110, MaxDieC: 76.3, MaxSupplyC: 33.2, PUE: 1.116},
		{Scenario: "pump:0.8", Converged: true, OuterIterations: 12,
			ThrottledBlades: 1000, MaxThrottleSteps: 2, InfeasibleBlades: 657,
			ITPowerW: 74470, MaxDieC: 119.3, MaxSupplyC: 33.4, PUE: 1.115},
	}
	r := faultsResult(points, At(Coarse))
	if r.Name != "faults" || r.Resolution != "coarse" || r.Title == "" {
		t.Fatalf("bad envelope: %+v", r)
	}
	if len(r.Tables) != 1 || r.Tables[0].Name != "survival" {
		t.Fatalf("tables = %+v, want one survival table", r.Tables)
	}
	tb := r.Tables[0]
	if len(tb.Rows) != len(points) {
		t.Fatalf("%d rows for %d points", len(tb.Rows), len(points))
	}
	for i, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(tb.Columns))
		}
		for j, cell := range row {
			if tb.Columns[j].Prec >= 0 {
				switch cell.(type) {
				case float64, int:
				default:
					t.Fatalf("row %d col %q: non-numeric cell %T in numeric column", i, tb.Columns[j].Name, cell)
				}
			}
		}
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if back.Name != r.Name || len(back.Tables) != 1 {
		t.Fatalf("round-tripped result lost structure: %+v", back)
	}
	if md := r.Markdown(); !strings.HasPrefix(md, "## ") || !strings.Contains(md, "pump:0.8") {
		t.Fatalf("markdown missing heading or rows:\n%s", md)
	}
	// The worst-scenario note names the hottest row.
	if len(r.Notes) == 0 || !strings.Contains(r.Notes[len(r.Notes)-1], "pump:0.8") {
		t.Fatalf("notes do not name the hottest scenario: %v", r.Notes)
	}
}
