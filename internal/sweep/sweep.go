// Package sweep is the parallel evaluation engine behind every
// embarrassingly parallel study in this repository: the design-space
// grids, the orientation and mapping scenario sweeps, the Table II policy
// comparison and the datacenter's per-class blade solves are all
// independent evaluations of a point list, so they fan out across a
// bounded worker pool here instead of looping serially.
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
//
// The engine keeps no per-worker state. An evaluation that needs a solve
// session takes one from a cosim.Pool and returns it, so sessions (and
// the worker teams they own) are reused across points and released by
// the pool's owner.
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
	"runtime"
	"sync"
	"sync/atomic"
)

// pool runs work() on workers goroutines and returns once all have
// retired. One worker runs on the calling goroutine, as in linalg.Team,
// so only workers−1 goroutines start: a one-worker sweep starts none,
// and a panic in that worker unwinds into the caller.
func pool(workers int, work func()) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Run evaluates eval over every point concurrently and returns the
// results in input order. Evaluations must be independent; eval may run
// on any goroutine but never concurrently with itself on the same index.
// Cancelling ctx stops the sweep between points and returns ctx.Err().
func Run[P, R any](ctx context.Context, points []P, eval func(P) (R, error), workers int) ([]R, error) {
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
	)
	pool(workers, func() {
		for !stop.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(points) {
				return
			}
			r, err := eval(points[i])
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
