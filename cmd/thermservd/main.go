// Command thermservd is the thermal digital-twin daemon: a long-running
// HTTP/JSON service over the warm solve stack, with pooled solve sessions,
// response memoization, bounded admission (429 backpressure), circuit
// breaking, crash-safe transient checkpointing, and graceful drain on
// SIGTERM/SIGINT.
//
// Usage:
//
//	thermservd -addr :8080 -res medium -solver cg
//	thermservd -addr :8080 -checkpoint /var/lib/thermservd/ckpt.json -checkpoint-every 30s -restore
//	curl -s localhost:8080/v1/steady -d '{"benchmark":"x264"}'
//	curl -s localhost:8080/v1/experiments
//	curl -s -X POST localhost:8080/v1/experiments/tablei
//
// Endpoints:
//
//	POST /v1/steady                steady what-if proposal → θ, cooling, feasibility
//	POST /v1/transient             register a blade for transient stepping
//	GET  /v1/transient             list registered blades
//	GET  /v1/transient/{b}         blade status
//	POST /v1/transient/{b}/step    advance a power-trace chunk (seq = exactly-once)
//	DELETE /v1/transient/{b}       release a blade
//	GET  /v1/experiments           the experiment catalog
//	POST /v1/experiments/{name}    run one experiment, Result JSON
//	POST /v1/checkpoint            snapshot the transient registry now
//	GET  /v1/stats                 cache/admission/resilience counters
//	GET  /healthz                  liveness (503 while draining)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/thermal"
)

// options collects every daemon knob; flags parse into one and tests
// construct one directly.
type options struct {
	Addr            string
	Resolution      string
	Solver          string
	Workers         int
	Threads         int
	Timeout         time.Duration
	DrainWait       time.Duration
	CheckpointPath  string
	CheckpointEvery time.Duration
	Restore         bool
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()

	if err := run(o, os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "thermservd:", err)
		os.Exit(1)
	}
}

// registerFlags defines every daemon flag on fs, parsing into o.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.Addr, "addr", ":8080", "listen address (use :0 for an ephemeral port)")
	fs.StringVar(&o.Resolution, "res", "coarse", "default thermal resolution: coarse|medium|full")
	fs.StringVar(&o.Solver, "solver", "mgpcg", "default linear solver: mgpcg (multigrid-preconditioned CG) or cg (Jacobi-CG)")
	fs.IntVar(&o.Workers, "workers", 0, "max concurrent solves (0 = auto split of GOMAXPROCS)")
	fs.IntVar(&o.Threads, "threads", 0, "threads per solve session (0 = auto split)")
	fs.DurationVar(&o.Timeout, "timeout", 0, "per-request solve deadline (0 = none), e.g. 30s")
	fs.DurationVar(&o.DrainWait, "drain", 30*time.Second, "max wait for in-flight requests on shutdown")
	fs.StringVar(&o.CheckpointPath, "checkpoint", "", "transient checkpoint file (empty = checkpointing off); snapshots on drain and on POST /v1/checkpoint")
	fs.DurationVar(&o.CheckpointEvery, "checkpoint-every", 0, "periodic checkpoint interval (0 = only on drain/demand)")
	fs.BoolVar(&o.Restore, "restore", false, "restore the transient registry from -checkpoint at boot")
}

// run starts the daemon, printing its status lines to stdout, and blocks
// until SIGTERM/SIGINT (ready, when non-nil, receives the bound address
// once the listener is up).
func run(o options, stdout io.Writer, ready chan<- string) error {
	res, err := experiments.ParseResolution(o.Resolution)
	if err != nil {
		return err
	}
	solver, err := thermal.ParseSolver(o.Solver)
	if err != nil {
		return err
	}
	if o.Restore && o.CheckpointPath == "" {
		return fmt.Errorf("-restore requires -checkpoint")
	}
	s, err := serve.New(serve.Config{
		Resolution:      res,
		Solver:          solver,
		Workers:         o.Workers,
		Threads:         o.Threads,
		RequestTimeout:  o.Timeout,
		CheckpointPath:  o.CheckpointPath,
		CheckpointEvery: o.CheckpointEvery,
		RestoreOnStart:  o.Restore,
	})
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	cfg := s.Config()
	fmt.Fprintf(stdout, "thermservd listening on %s (res=%s solver=%s workers=%d threads=%d)\n",
		ln.Addr(), res, solver, cfg.Workers, cfg.Threads)
	if o.Restore {
		fmt.Fprintf(stdout, "thermservd: restored %d transient blade(s) from %s\n",
			s.Snapshot().CheckpointBladesRestored, o.CheckpointPath)
	}

	// Register the signal handler before announcing readiness: a SIGTERM
	// racing the startup must drain, not kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case sig := <-sigc:
		fmt.Fprintf(stdout, "thermservd: %v, draining\n", sig)
	case err := <-errc:
		return err
	}

	// Drain: refuse new work first so kept-alive clients see 503 instead
	// of a reset, then let Shutdown wait out in-flight requests, then
	// retire the pooled sessions (taking the final checkpoint, when one is
	// configured, before the blades close).
	s.BeginDrain()
	ctx, cancel := experiments.WithTimeout(context.Background(), o.DrainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := s.Close(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "thermservd: drained, bye")
	return nil
}
