// Command thermbench is the benchmark of the thermservd service: it
// builds cmd/thermservd, drives fresh daemons with seeded traffic over at
// most two kept-alive connections, checks every answer, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object with the metrics BENCHMARK.json lists: the end-to-end ones,
// or with -trace 1 the per-layer ones.
//
// Usage:
//
//	thermbench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-out runs.jsonl]
//	thermbench compare -base A.jsonl -new B.jsonl
//
// bench/run.sh builds and runs it from the repository root; bench/README.md
// describes the workloads, the metrics and the comparison rule. Linux only:
// the open-loop pacer sleeps with nanosleep(2) and peak memory is read
// from /proc.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thermbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rootFlag := fs.String("root", "", "repository root (default: found upward from the working directory)")
	wl := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 0, "measured seconds per workload (0 = run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run: also replay the inputs in-process and report per-layer metrics")
	out := fs.String("out", "", "append one JSON record per workload run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot(*rootFlag)
	if err != nil {
		fmt.Fprintln(stderr, "thermbench:", err)
		return 2
	}
	if fs.Arg(0) == "compare" {
		return runCompare(fs.Args()[1:], root, stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "thermbench:", err)
		return 2
	}
	names, err := selectWorkloads(*wl)
	if err != nil {
		fmt.Fprintln(stderr, "thermbench:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "thermbench: -seconds must be at least 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	buildDir := filepath.Join(root, ".bench_build")
	results, err := runWorkloads(ctx, root, buildDir, names, *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "thermbench:", err)
		return 1
	}
	if *out != "" {
		recs := make([]record, len(results))
		for i, r := range results {
			recs[i] = r.record(*seed, *seconds, *trace == 1)
		}
		if err := appendRecords(*out, recs); err != nil {
			fmt.Fprintln(stderr, "thermbench:", err)
			return 1
		}
	}
	want := sp.EndToEnd
	if *trace == 1 {
		want = sp.PerLayer
	}
	sum, err := summarize(results, want)
	if err != nil {
		fmt.Fprintln(stderr, "thermbench:", err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "thermbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// findRoot returns dir when set, else the nearest directory at or above
// the working directory that holds cmd/thermservd.
func findRoot(dir string) (string, error) {
	if dir != "" {
		return filepath.Abs(dir)
	}
	d, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "cmd", "thermservd", "main.go")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", errors.New("no repository root (a directory with cmd/thermservd) at or above the working directory")
		}
		d = parent
	}
}

func selectWorkloads(name string) ([]string, error) {
	var all []string
	for _, w := range workloads {
		if name == "all" || name == w.name {
			all = append(all, w.name)
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return all, nil
}

// runWorkloads builds the daemon into buildDir and runs the named
// workloads in turn, printing each one's metrics to out.
func runWorkloads(ctx context.Context, root, buildDir string, names []string, seed int64, seconds int, trace bool, out io.Writer) ([]*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDaemon(root, buildDir)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	conns := min(2, runtime.NumCPU())
	var results []*result
	for _, name := range names {
		h := &harness{ctx: ctx, dir: dir, bin: bin, seed: seed, seconds: time.Duration(seconds) * time.Second,
			trace: trace, conns: conns, client: newClient(conns), out: out}
		fmt.Fprintf(out, "%-17s seed %d, %d s measured, %d connections, trace %v\n", name, seed, seconds, conns, trace)
		r := &result{workload: name}
		for _, w := range workloads {
			if w.name == name {
				err = w.run(h, r)
			}
		}
		h.client.CloseIdleConnections()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		r.set("error_share", ratio(int64(r.failed), int64(r.attempted)), "share", "failed + refused + wrong, of attempted")
		r.print(out)
		results = append(results, r)
	}
	return results, nil
}
