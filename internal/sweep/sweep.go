// Package sweep is the parallel evaluation engine behind every
// embarrassingly parallel study in this repository: the design-space
// grids, the orientation and mapping scenario sweeps, the Table II policy
// comparison and the per-frequency plan search are all independent
// evaluations of a point list, so they fan out across a bounded worker
// pool here instead of looping serially.
//
// The engine guarantees:
//
//   - Deterministic, input-ordered results: Run(ctx, points, eval)[i] is the
//     result of eval(points[i]), regardless of worker count or scheduling.
//   - Fail-fast error aggregation: once any evaluation fails no new points
//     are started, and the error reported is the failing point with the
//     lowest input index among those evaluated. Context cancellation is
//     part of the same contract: workers observe ctx between points, stop
//     claiming as soon as it is done, and the call reports ctx.Err().
//   - Per-worker reusable state: RunState gives each worker one state
//     value (a solver, a system cache) built once and reused across all
//     points that worker claims, so operators and scratch vectors are not
//     rebuilt per point. A state that implements io.Closer is closed when
//     its worker retires — solve sessions configured with intra-solve
//     threads own goroutine teams, and the engine releases them so a
//     sweep leaves no goroutines behind.
//
// The worker count is an explicit per-call parameter (<= 0 means
// GOMAXPROCS; one worker runs every point on the calling goroutine, the
// serial baseline the sweep benchmarks compare against). There is
// deliberately no process-wide override: concurrent sweeps with different worker budgets must not see each
// other's configuration. The core budget is shared with the intra-solve
// worker teams: callers split GOMAXPROCS between sweep workers and
// per-solve threads (see experiments.RunConfig) so the two layers of
// parallelism compose instead of oversubscribing.
package sweep

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// closeState releases a per-worker state that holds external resources:
// any state implementing io.Closer (a cosim.Session owning a worker team,
// for instance) is closed when its worker retires.
func closeState(st any) {
	if c, ok := st.(io.Closer); ok {
		c.Close()
	}
}

// pool runs work(w) for every worker w in [0, workers) and returns once
// all have retired. Worker 0 runs on the calling goroutine, as in
// linalg.Team, so only workers−1 goroutines start: a one-worker sweep
// starts none, and a panic in worker 0 unwinds into the caller.
func pool(workers int, work func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
}

// Run evaluates eval over every point concurrently and returns the
// results in input order. Evaluations must be independent; eval may run
// on any goroutine but never concurrently with itself on the same index.
// Cancelling ctx stops the sweep between points and returns ctx.Err().
func Run[P, R any](ctx context.Context, points []P, eval func(P) (R, error), workers int) ([]R, error) {
	return RunState(ctx, points,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, p P) (R, error) { return eval(p) },
		workers)
}

// RunState is Run with per-worker reusable state: newState runs once per
// worker (on the worker's goroutine) and its value is passed to every
// evaluation that worker performs. Use it to amortize expensive solver
// construction — each worker owns its state, so eval needs no locking.
func RunState[S, P, R any](ctx context.Context, points []P, newState func() (S, error), eval func(S, P) (R, error), workers int) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(points))

	results := make([]R, len(points))
	if len(points) == 0 {
		return results, ctx.Err()
	}
	var (
		next     atomic.Int64 // next unclaimed point index
		done     atomic.Int64 // successfully evaluated points
		stop     atomic.Bool  // fail-fast: stop claiming new points
		pointErr = make([]error, len(points))
		stateErr = make([]error, workers)
	)
	pool(workers, func(w int) {
		st, err := newState()
		if err != nil {
			stateErr[w] = err
			stop.Store(true)
			return
		}
		defer closeState(st)
		for !stop.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(points) {
				return
			}
			r, err := eval(st, points[i])
			if err != nil {
				pointErr[i] = err
				stop.Store(true)
				return
			}
			results[i] = r
			done.Add(1)
		}
	})

	// A sweep that finished every point succeeded, full stop — matching
	// a serial loop, where a cancellation arriving after the last
	// evaluation is never observed.
	if int(done.Load()) == len(points) {
		return results, nil
	}
	// Otherwise cancellation dominates: a cancelled sweep has evaluated
	// an unpredictable prefix, so its partial results and point errors
	// are meaningless to the caller.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Report the lowest-index failing point so the error is stable across
	// schedules whenever a single point is at fault.
	for i, err := range pointErr {
		if err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", i, err)
		}
	}
	for _, err := range stateErr {
		if err != nil {
			return nil, fmt.Errorf("sweep: worker state: %w", err)
		}
	}
	return results, nil
}

// Pair couples two sweep axes into one point.
type Pair[A, B any] struct {
	A A
	B B
}

// Cross returns the cross product of two axes in row-major order: the A
// axis is the outer loop, matching the nested-loop order the serial
// studies used.
func Cross[A, B any](as []A, bs []B) []Pair[A, B] {
	out := make([]Pair[A, B], 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			out = append(out, Pair[A, B]{A: a, B: b})
		}
	}
	return out
}
