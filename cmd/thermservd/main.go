// Command thermservd is the thermal digital-twin daemon: a long-running
// HTTP/JSON service over the warm solve stack, with pooled solve sessions,
// response memoization, bounded admission (429 backpressure), circuit
// breaking, crash-safe transient checkpointing, and graceful drain on
// SIGTERM/SIGINT.
//
// Usage:
//
//	thermservd -addr :8080 -res medium -solver mgpcg
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
	Queue           int
	Sessions        int
	Memo            int
	Transients      int
	Timeout         time.Duration
	DrainWait       time.Duration
	CheckpointPath  string
	CheckpointEvery time.Duration
	Restore         bool
}

func main() {
	var o options
	flag.StringVar(&o.Addr, "addr", ":8080", "listen address (use :0 for an ephemeral port)")
	flag.StringVar(&o.Resolution, "res", "coarse", "default thermal resolution: coarse|medium|full")
	flag.StringVar(&o.Solver, "solver", "cg", "default linear solver: cg|mgpcg")
	flag.IntVar(&o.Workers, "workers", 0, "max concurrent solves (0 = auto split of GOMAXPROCS)")
	flag.IntVar(&o.Threads, "threads", 0, "threads per solve session (0 = auto split)")
	flag.IntVar(&o.Queue, "queue", 0, "admission queue depth before 429 (0 = 2×workers)")
	flag.IntVar(&o.Sessions, "sessions", 0, "cap on idle pooled solve sessions and on (solver, resolution, fault) pools (0 = 64)")
	flag.IntVar(&o.Memo, "memo", 0, "response memo capacity (0 = 4096)")
	flag.IntVar(&o.Transients, "transients", 0, "max registered transient blades (0 = 16)")
	flag.DurationVar(&o.Timeout, "timeout", 0, "per-request solve deadline (0 = none), e.g. 30s")
	flag.DurationVar(&o.DrainWait, "drain", 30*time.Second, "max wait for in-flight requests on shutdown")
	flag.StringVar(&o.CheckpointPath, "checkpoint", "", "transient checkpoint file (empty = checkpointing off); snapshots on drain and on POST /v1/checkpoint")
	flag.DurationVar(&o.CheckpointEvery, "checkpoint-every", 0, "periodic checkpoint interval (0 = only on drain/demand)")
	flag.BoolVar(&o.Restore, "restore", false, "restore the transient registry from -checkpoint at boot")
	flag.Parse()

	if err := run(o, nil); err != nil {
		fmt.Fprintln(os.Stderr, "thermservd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until SIGTERM/SIGINT (or ready is
// closed with a test-driven shutdown; ready, when non-nil, receives the
// bound address once the listener is up).
func run(o options, ready chan<- string) error {
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
		QueueDepth:      o.Queue,
		Sessions:        o.Sessions,
		MemoEntries:     o.Memo,
		Transients:      o.Transients,
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
	fmt.Printf("thermservd listening on %s (res=%s solver=%s workers=%d threads=%d)\n",
		ln.Addr(), res, solver, cfg.Workers, cfg.Threads)
	if o.Restore {
		fmt.Printf("thermservd: restored %d transient blade(s) from %s\n",
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
		fmt.Printf("thermservd: %v, draining\n", sig)
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
	fmt.Println("thermservd: drained, bye")
	return nil
}
