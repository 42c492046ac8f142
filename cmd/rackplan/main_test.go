package main

import (
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datacenter"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/thermal"
)

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	os.Stdout = old
	w.Close()
	out, _ := io.ReadAll(r)
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

func TestRackplanRuns(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(2, 4, 1, "coarse", 27, "cg", 0, 1, "")
	})
	for _, want := range []string{
		"8 blades in 2 racks over 1 loops",
		"outer fixed point:",
		"converged true",
		"plant:",
		"facility PUE:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "not counted") {
		t.Fatalf("a healthy fleet reports uncounted blades:\n%s", out)
	}
}

// TestRackplanClassRollup: fleets past the per-blade table cap collapse
// to one row per (benchmark, loop) class.
func TestRackplanClassRollup(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(5, 8, 2, "coarse", 27, "cg", 0, 1, "")
	})
	for _, want := range []string{"40 blades in 5 racks over 2 loops", "blades", "W each"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	for _, row := range []string{`(?m)^x264 +loop0 +\d+ `, `(?m)^x264 +loop1 +\d+ `} {
		if !regexp.MustCompile(row).MatchString(out) {
			t.Fatalf("no class row matches %s:\n%s", row, out)
		}
	}
}

// TestRackplanFlagValidation: every malformed flag combination must be
// rejected with an error naming the offending flag, before any solving.
func TestRackplanFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"zero racks", func() error { return run(0, 4, 1, "coarse", 27, "cg", 0, 1, "") }, "-racks"},
		{"zero blades", func() error { return run(2, 0, 1, "coarse", 27, "cg", 0, 1, "") }, "-blades"},
		{"negative water", func() error { return run(2, 4, 1, "coarse", -5, "cg", 0, 1, "") }, "-water"},
		{"unknown resolution", func() error { return run(2, 4, 1, "nope", 27, "cg", 0, 1, "") }, "nope"},
		{"unknown solver", func() error { return run(2, 4, 1, "coarse", 27, "nope", 0, 1, "") }, "nope"},
		{"more loops than racks", func() error { return run(2, 4, 3, "coarse", 27, "cg", 0, 1, "") }, "loop count"},
		{"zero loops", func() error { return run(2, 4, 0, "coarse", 27, "cg", 0, 1, "") }, "loop count"},
		{"bad fault spec", func() error { return run(2, 4, 1, "coarse", 27, "cg", 0, 1, "meteor:0.5") }, "-fault"},
		{"fault severity 1", func() error { return run(2, 4, 1, "coarse", 27, "cg", 0, 1, "pump:1.0") }, "-fault"},
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestRackplanFaultFlag: a -fault scenario must print the scenario
// summary (solver escalations) and still reach the plant
// section — and a blade-scoped fault must heat the fleet.
func TestRackplanFaultFlag(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(2, 4, 1, "coarse", 27, "cg", 0, 1, "pump:0.5,fouling:0.3")
	})
	for _, want := range []string{
		`fault scenario "pump:0.5,fouling:0.3"`,
		"solver escalation(s)",
		"facility PUE:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRackplanFailedClassesPrintFailed: on a 280-blade loop under
// pump:0.8 the blackscholes and raytrace class solves fail. Their rows
// must say "failed", never print a zero operating point that reads as a
// cool blade, while the solved classes keep their numbers. Classes are
// per loop: on a 200-blade fleet over two loops, freqmine fails on the
// hotter loop0 only, and each loop gets a freqmine row of its own. The
// loop and plant lines name the failed blades they leave out.
func TestRackplanFailedClassesPrintFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 280-blade and a 200-blade faulted fleet")
	}
	out := captureStdout(t, func() error {
		return run(7, 40, 1, "coarse", 27, "cg", 0, 1, "pump:0.8")
	})
	for _, bench := range []string{"blackscholes", "raytrace"} {
		if !regexp.MustCompile(`(?m)^` + bench + ` +loop0 +\d+ +failed +failed +failed *$`).MatchString(out) {
			t.Fatalf("%s row does not print failed cells:\n%s", bench, out)
		}
	}
	if !regexp.MustCompile(`(?m)^x264 +loop0 +\d+ +\d+\.\d +\d+\.\d +\d+\.\d *$`).MatchString(out) {
		t.Fatalf("solved x264 class lost its operating point:\n%s", out)
	}
	if regexp.MustCompile(`(?m) 0\.0 `).MatchString(out) {
		t.Fatalf("a class row prints a zero operating point:\n%s", out)
	}

	out = captureStdout(t, func() error {
		return run(5, 40, 2, "coarse", 27, "cg", 0, 1, "pump:0.8")
	})
	for _, want := range []string{
		`(?m)^freqmine +loop0 +\d+ +failed +failed +failed *$`,
		`(?m)^freqmine +loop1 +\d+ +\d+\.\d +\d+\.\d +\d+\.\d *$`,
		`(?m)^loop0 +120 +\d+ \(\d+ failed blades not counted\) `,
		`(?m)^loop1 +80 +\d+ +\d+\.\d\d `,
		`(?m)^plant: \d+ W IT \(\d+ failed blades not counted\), `,
	} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Fatalf("two-loop fleet output does not match %s:\n%s", want, out)
		}
	}
}

// TestRackplanWorkersFlag: a serial run and a pooled run (with
// intra-solve threads) must print byte-identical reports — the datacenter
// layer's outer-loop determinism contract, surfaced at the CLI.
func TestRackplanWorkersFlag(t *testing.T) {
	testRackplanWorkersFlag(t, "cg")
}

// TestRackplanWorkersFlagMGPCG repeats the serial-vs-pooled byte-equality
// check with the multigrid-preconditioned solver selected: a fixed solver
// choice must keep the determinism contract.
func TestRackplanWorkersFlagMGPCG(t *testing.T) {
	testRackplanWorkersFlag(t, "mgpcg")
}

func testRackplanWorkersFlag(t *testing.T, solver string) {
	withWorkers := func(n int) string {
		return captureStdout(t, func() error {
			return run(2, 4, 2, "coarse", 27, solver, n, 2, "")
		})
	}
	serial := withWorkers(1)
	pooled := withWorkers(4)
	if serial != pooled {
		t.Fatalf("worker count changed the report:\nserial:\n%s\npooled:\n%s", serial, pooled)
	}
}

// TestRackplanDefaultBudget: -workers 0 -threads 0 splits GOMAXPROCS
// across the blade classes and hands the cores left over to each class
// solve's thread team, so at 4 procs a 2-class fleet runs 2 workers × 2
// threads. The threaded report must be byte-identical to a serial one.
func TestRackplanDefaultBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	states := []power.PackageState{{Freq: power.FMax}, {Freq: power.FMin}}
	topo, err := datacenter.Uniform(1, 2, 1, rack.SharedLoop{SetpointC: 27}, states)
	if err != nil {
		t.Fatal(err)
	}
	if n := topo.NumClasses(); n != 2 {
		t.Fatalf("fleet has %d classes, want 2", n)
	}
	if opt := fleetOptions(&topo, thermal.SolverCG, 0, 0, nil); opt.Workers != 2 || opt.Threads != 2 {
		t.Fatalf("-workers 0 -threads 0 resolved to %d × %d, want 2 × 2", opt.Workers, opt.Threads)
	}

	budget := func(workers, threads int) string {
		return captureStdout(t, func() error {
			return run(1, 2, 1, "coarse", 27, "cg", workers, threads, "")
		})
	}
	if auto, serial := budget(0, 0), budget(1, 1); auto != serial {
		t.Fatalf("the default budget changed the report:\nauto:\n%s\nserial:\n%s", auto, serial)
	}
}
