package repro_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current outputs")

const goldenDir = "testdata/golden"

// goldenRun is one pinned command: the binary, its arguments, and the
// golden file its stdout must match.
type goldenRun struct {
	file string
	bin  string
	args []string
	// slow runs are written by -update but compared only by CI's faults
	// smoke, so tier-1 stays fast.
	slow bool
}

// goldenRuns lists every pinned output: each catalog experiment at coarse
// with the default solver, the rackplan commands CI runs, and the
// quickstart walkthrough.
func goldenRuns() []goldenRun {
	var runs []goldenRun
	for _, name := range experiments.Names() {
		runs = append(runs, goldenRun{file: "paperbench_" + name + ".txt", bin: "paperbench",
			args: []string{"-exp", name, "-res", "coarse"}, slow: name == "faults"})
	}
	fleet := []string{"-racks", "8", "-blades", "32", "-loops", "2", "-fault", "dryout:0.8:loop1,htc:0.5:loop0:r0b1"}
	return append(runs,
		goldenRun{file: "rackplan_faulted.txt", bin: "rackplan", args: fleet},
		goldenRun{file: "rackplan_faulted_mgpcg.txt", bin: "rackplan", args: append(fleet, "-solver", "mgpcg")},
		goldenRun{file: "rackplan_small.txt", bin: "rackplan", args: []string{"-racks", "1", "-blades", "2"}},
		goldenRun{file: "quickstart.txt", bin: "quickstart"},
	)
}

// doneLine matches paperbench's per-experiment wall-time line, the one
// part of its text output that varies between runs.
var doneLine = regexp.MustCompile(`(?m)^\[\w+ done in [^\]]*\]\n`)

// TestGoldenOutputs runs the commands at their product surface and
// compares their text output with testdata/golden byte for byte, so a
// change that moves a printed number shows up as a testdata diff.
// `go test . -run TestGoldenOutputs -update` rewrites the files (faults
// included, about a minute at coarse). Go fuses multiply-adds on some
// architectures and not others, so the goldens hold only for the GOARCH
// recorded beside them; elsewhere the test skips.
func TestGoldenOutputs(t *testing.T) {
	archFile := filepath.Join(goldenDir, "GOARCH")
	if !*update {
		arch, err := os.ReadFile(archFile)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.TrimSpace(string(arch)); want != runtime.GOARCH {
			t.Skipf("goldens were written on %s, this is %s", want, runtime.GOARCH)
		}
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build the commands")
	}
	bin := t.TempDir()
	build := exec.Command(gobin, "build", "-o", bin, "./cmd/paperbench", "./cmd/rackplan", "./examples/quickstart")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, g := range goldenRuns() {
		if g.slow && !*update {
			continue
		}
		t.Run(strings.TrimSuffix(g.file, ".txt"), func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, g.bin), g.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s %s: %v\n%s", g.bin, strings.Join(g.args, " "), err, stderr.Bytes())
			}
			out = doneLine.ReplaceAll(out, nil)
			path := filepath.Join(goldenDir, g.file)
			if *update {
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("%s %s differs from %s (rerun with -update if the change is intended):\n%s",
					g.bin, strings.Join(g.args, " "), path, lineDiff(want, out))
			}
		})
	}
	if *update {
		if err := os.WriteFile(archFile, []byte(runtime.GOARCH+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// lineDiff lists the lines that differ between want and got, by position.
func lineDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			b.WriteString("- " + wl + "\n+ " + gl + "\n")
		}
	}
	return b.String()
}
