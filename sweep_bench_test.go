// Serial-vs-parallel benchmarks and determinism proofs for the sweep
// engine on the real paper workloads:
//
//	go test -bench=Sweep -benchmem
//
// compares the §VI-B/C design-space grid, the Fig. 5 orientation study and
// the Fig. 6 scenario sweep
// evaluated by one worker against the full pool. The tests assert that
// the parallel sweeps return byte-identical results to the serial ones;
// run them with -race to also prove the pool is data-race free. Worker
// counts and solver selections travel in each call's RunConfig — there is
// no process-wide knob — so the isolation test can run two differently
// configured sweeps concurrently and demand byte-identical results to
// their serial counterparts.
package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/thermal"
)

// atWorkers is the coarse-resolution config with a fixed worker count.
func atWorkers(n int) experiments.RunConfig {
	cfg := experiments.At(experiments.Coarse)
	cfg.Workers = n
	return cfg
}

// poolWorkers is the worker count the parallel benchmarks and the
// determinism tests use: the full machine, but at least 4 so the
// concurrent paths (and -race interleavings) are exercised even on small
// runners.
func poolWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

func TestSweepDesignSpaceDeterministic(t *testing.T) {
	serial, err := experiments.DesignSpaceStudy(nil, atWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.DesignSpaceStudy(nil, atWorkers(poolWorkers()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", parallel), fmt.Sprintf("%+v", serial); got != want {
		t.Fatalf("parallel design-space result differs from serial:\n got %s\nwant %s", got, want)
	}
}

// TestSweepFig5Deterministic covers the orientation study, worst-channel
// view included: the channel march reads each pooled solve's heat flux.
func TestSweepFig5Deterministic(t *testing.T) {
	serial, err := experiments.Fig5Orientation(nil, atWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.Fig5Orientation(nil, atWorkers(poolWorkers()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", parallel), fmt.Sprintf("%+v", serial); got != want {
		t.Fatalf("parallel Fig5 result differs from serial:\n got %s\nwant %s", got, want)
	}
}

func TestSweepFig6Deterministic(t *testing.T) {
	serial, err := experiments.Fig6MappingScenarios(nil, atWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.Fig6MappingScenarios(nil, atWorkers(poolWorkers()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", parallel), fmt.Sprintf("%+v", serial); got != want {
		t.Fatalf("parallel Fig6 result differs from serial:\n got %s\nwant %s", got, want)
	}
}

func TestSweepTableIIDeterministic(t *testing.T) {
	subset := tableIISubset(t)
	serial, err := experiments.TableIIPolicyComparison(nil, atWorkers(1), subset)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.TableIIPolicyComparison(nil, atWorkers(poolWorkers()), subset)
	if err != nil {
		t.Fatal(err)
	}
	// The averages must be bit-identical, not approximately equal: the
	// engine returns cells in input order, so the float accumulation
	// order matches the serial sweep exactly.
	if got, want := fmt.Sprintf("%+v", parallel), fmt.Sprintf("%+v", serial); got != want {
		t.Fatalf("parallel Table II rows differ from serial:\n got %s\nwant %s", got, want)
	}
}

// TestSweepFig6DeterministicMGPCG re-runs the Fig. 6 serial-vs-pooled
// byte-equality proof with the multigrid-preconditioned solver selected
// in the RunConfig: solver choice is a performance knob, and for any
// fixed choice the pooled sweep must remain byte-identical to the serial
// one.
func TestSweepFig6DeterministicMGPCG(t *testing.T) {
	mg := func(workers int) experiments.RunConfig {
		cfg := atWorkers(workers)
		cfg.Solver = thermal.SolverMGPCG
		return cfg
	}
	serial, err := experiments.Fig6MappingScenarios(nil, mg(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.Fig6MappingScenarios(nil, mg(poolWorkers()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", parallel), fmt.Sprintf("%+v", serial); got != want {
		t.Fatalf("parallel MG-PCG Fig6 result differs from serial:\n got %s\nwant %s", got, want)
	}
}

// TestConcurrentRunsIsolated is the acceptance proof that killing the
// config globals worked: two concurrent runs of the same experiment with
// DIFFERENT solvers and worker counts must each produce byte-identical
// results to the same run executed serially. Under the old
// SetDefaultSolver/SetDefaultWorkers atomics this interleaving raced —
// one run's configuration could leak into the other.
func TestConcurrentRunsIsolated(t *testing.T) {
	cfgCG := atWorkers(2)
	cfgMG := atWorkers(poolWorkers())
	cfgMG.Solver = thermal.SolverMGPCG

	serialCG, err := experiments.Fig6MappingScenarios(nil, cfgCG)
	if err != nil {
		t.Fatal(err)
	}
	serialMG, err := experiments.Fig6MappingScenarios(nil, cfgMG)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg             sync.WaitGroup
		concCG, concMG []experiments.Fig6Result
		errCG, errMG   error
	)
	wg.Add(2)
	go func() { defer wg.Done(); concCG, errCG = experiments.Fig6MappingScenarios(nil, cfgCG) }()
	go func() { defer wg.Done(); concMG, errMG = experiments.Fig6MappingScenarios(nil, cfgMG) }()
	wg.Wait()
	if errCG != nil || errMG != nil {
		t.Fatalf("concurrent runs failed: %v / %v", errCG, errMG)
	}
	if got, want := fmt.Sprintf("%+v", concCG), fmt.Sprintf("%+v", serialCG); got != want {
		t.Fatalf("concurrent CG run differs from its serial twin:\n got %s\nwant %s", got, want)
	}
	if got, want := fmt.Sprintf("%+v", concMG), fmt.Sprintf("%+v", serialMG); got != want {
		t.Fatalf("concurrent MG-PCG run differs from its serial twin:\n got %s\nwant %s", got, want)
	}
}

// TestResolutionScalingDeterministicMGPCG: the resolution-scaling sweep's
// deterministic fields (everything except wall time) must be
// byte-identical between a serial and a pooled run with MG-PCG.
func TestResolutionScalingDeterministicMGPCG(t *testing.T) {
	sizes := []int{16, 24}
	solvers := []thermal.Solver{thermal.SolverMGPCG}
	strip := func(cells []experiments.ResolutionCell) string {
		for i := range cells {
			cells[i].WallMS = 0
		}
		return fmt.Sprintf("%+v", cells)
	}
	serial, err := experiments.ExtResolutionScaling(nil, atWorkers(1), sizes, solvers)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.ExtResolutionScaling(nil, atWorkers(poolWorkers()), sizes, solvers)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strip(parallel), strip(serial); got != want {
		t.Fatalf("pooled resolution sweep differs from serial:\n got %s\nwant %s", got, want)
	}
}

// BenchmarkSweepDesignSpaceSerial is the single-worker baseline for the
// §VI-B/C design-space grid (50 independent co-simulations).
func BenchmarkSweepDesignSpaceSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DesignSpaceStudy(nil, atWorkers(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepDesignSpaceParallel runs the same grid across the worker
// pool; on a multi-core runner it should beat the serial baseline by at
// least the factor of available cores (modulo the final partial batch).
func BenchmarkSweepDesignSpaceParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DesignSpaceStudy(nil, atWorkers(poolWorkers())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepFig5Serial / Parallel cover the orientation study, whose
// four points each build their own system.
func BenchmarkSweepFig5Serial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5Orientation(nil, atWorkers(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepFig5Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5Orientation(nil, atWorkers(poolWorkers())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepTableIISerial / Parallel cover the policy-comparison grid
// on the three-benchmark subset (27 plan+solve cells).
func BenchmarkSweepTableIISerial(b *testing.B) {
	subset := tableIISubset(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIIPolicyComparison(nil, atWorkers(1), subset); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepTableIIParallel(b *testing.B) {
	subset := tableIISubset(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIIPolicyComparison(nil, atWorkers(poolWorkers()), subset); err != nil {
			b.Fatal(err)
		}
	}
}
