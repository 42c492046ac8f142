package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var bg = context.Background()

func TestRunOrdered(t *testing.T) {
	points := make([]int, 100)
	for i := range points {
		points[i] = i
	}
	for _, workers := range []int{1, 2, 3, 8, 64, 200} {
		got, err := Run(bg, points, func(p int) (int, error) { return p * p, nil }, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(points) {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	points := make([]float64, 257)
	for i := range points {
		points[i] = float64(i) * 0.37
	}
	eval := func(p float64) (float64, error) { return p*p + 1/(p+1), nil }
	serial, err := Run(bg, points, eval, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(bg, points, eval, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identical, not merely approximately equal.
	if fmt.Sprintf("%v", serial) != fmt.Sprintf("%v", parallel) {
		t.Fatal("parallel results differ from serial")
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	got, err := Run(bg, nil, func(p int) (int, error) { return p, nil }, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run: %v, %v", got, err)
	}
	got, err = Run(bg, []int{41}, func(p int) (int, error) { return p + 1, nil }, 16)
	if err != nil || len(got) != 1 || got[0] != 42 {
		t.Fatalf("single run: %v, %v", got, err)
	}
}

func TestRunNilContext(t *testing.T) {
	// A nil context means "not cancellable", matching context.Background().
	got, err := Run(nil, []int{1, 2}, func(p int) (int, error) { return p, nil }, 2)
	if err != nil || len(got) != 2 {
		t.Fatalf("nil ctx run: %v, %v", got, err)
	}
}

func TestRunFailFast(t *testing.T) {
	boom := errors.New("boom")
	points := make([]int, 500)
	for i := range points {
		points[i] = i
	}
	var evals atomic.Int64
	_, err := Run(bg, points, func(p int) (int, error) {
		evals.Add(1)
		if p == 3 {
			return 0, boom
		}
		return p, nil
	}, 4)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "point 3") {
		t.Fatalf("err = %v, want point index 3", err)
	}
	if n := evals.Load(); n >= int64(len(points)) {
		t.Fatalf("fail-fast did not stop the sweep: %d evaluations", n)
	}
}

func TestRunSerialErrorIndex(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(bg, []int{0, 1, 2}, func(p int) (int, error) {
		if p > 0 {
			return 0, boom
		}
		return p, nil
	}, 1)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("err = %v, want point 1", err)
	}
}

func TestRunStateReuse(t *testing.T) {
	var built atomic.Int64
	points := make([]int, 64)
	const workers = 4
	got, err := RunState(bg, points,
		func() (*int, error) {
			built.Add(1)
			return new(int), nil
		},
		func(st *int, _ int) (int, error) {
			*st++ // worker-private: must never race
			return *st, nil
		},
		workers)
	if err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n > workers || n < 1 {
		t.Fatalf("built %d states for %d workers", n, workers)
	}
	var total int
	for _, g := range got {
		total += g
	}
	// Each worker's state counts 1..k for the k points it claimed; the
	// per-worker sums of 1..k always total at least len(points).
	if total < len(points) {
		t.Fatalf("state reuse accounting broken: total %d", total)
	}
}

func TestRunStateConstructorError(t *testing.T) {
	boom := errors.New("no state")
	_, err := RunState(bg, []int{1, 2, 3},
		func() (int, error) { return 0, boom },
		func(int, int) (int, error) { return 0, nil },
		2)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want state error", err)
	}
	_, err = RunState(bg, []int{1, 2, 3},
		func() (int, error) { return 0, boom },
		func(int, int) (int, error) { return 0, nil },
		1)
	if !errors.Is(err, boom) {
		t.Fatalf("serial err = %v, want state error", err)
	}
}

// leakCheck returns a func that fails the test if the goroutine count has
// not returned to (near) its starting value — the engine must not leave
// workers behind after a cancelled sweep.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if runtime.NumGoroutine() <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestRunCancelMidSweep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		check := leakCheck(t)
		ctx, cancel := context.WithCancel(bg)
		points := make([]int, 1000)
		for i := range points {
			points[i] = i
		}
		var evals atomic.Int64
		start := time.Now()
		_, err := Run(ctx, points, func(p int) (int, error) {
			if evals.Add(1) == 3 {
				cancel() // cancel from inside the sweep: the next claims must stop
			}
			time.Sleep(100 * time.Microsecond)
			return p, nil
		}, workers)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Prompt return: nowhere near the full 1000-point sweep.
		if n := evals.Load(); n >= int64(len(points))/2 {
			t.Fatalf("workers=%d: cancellation did not stop the sweep (%d evaluations)", workers, n)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("workers=%d: cancelled sweep took %v", workers, el)
		}
		check()
	}
}

func TestRunCompletedSweepWinsOverLateCancel(t *testing.T) {
	// Cancellation arriving once every point has been evaluated must not
	// discard the finished sweep: the serial loop would never observe it.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(bg)
		points := []int{0, 1, 2, 3, 4, 5, 6, 7}
		var evals atomic.Int64
		got, err := Run(ctx, points, func(p int) (int, error) {
			if int(evals.Add(1)) == len(points) {
				cancel() // fires inside the last evaluation
			}
			return p, nil
		}, workers)
		cancel()
		if err != nil || len(got) != len(points) {
			t.Fatalf("workers=%d: completed sweep lost to late cancel: %v, %v", workers, got, err)
		}
	}
}

func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	for _, workers := range []int{1, 4} {
		var evals atomic.Int64
		_, err := Run(ctx, []int{1, 2, 3, 4, 5, 6, 7, 8}, func(p int) (int, error) {
			evals.Add(1)
			return p, nil
		}, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := evals.Load(); n != 0 {
			t.Fatalf("workers=%d: %d evaluations on a pre-cancelled context", workers, n)
		}
	}
}

func TestRunStateCancel(t *testing.T) {
	check := leakCheck(t)
	ctx, cancel := context.WithCancel(bg)
	points := make([]int, 500)
	var evals atomic.Int64
	_, err := RunState(ctx, points,
		func() (int, error) { return 0, nil },
		func(_ int, p int) (int, error) {
			if evals.Add(1) == 2 {
				cancel()
			}
			time.Sleep(100 * time.Microsecond)
			return p, nil
		},
		4)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := evals.Load(); n >= int64(len(points))/2 {
		t.Fatalf("cancellation did not stop the sweep (%d evaluations)", n)
	}
	check()
}

func TestCrossOrder(t *testing.T) {
	got := Cross([]string{"a", "b"}, []int{1, 2, 3})
	want := []Pair[string, int]{
		{"a", 1}, {"a", 2}, {"a", 3},
		{"b", 1}, {"b", 2}, {"b", 3},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d pairs", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// closerState counts Close calls for the state-lifecycle tests.
type closerState struct{ closes *atomic.Int64 }

func (c *closerState) Close() error {
	c.closes.Add(1)
	return nil
}

// TestRunStateClosesStates: per-worker states implementing io.Closer are
// closed exactly once per constructed state, on the serial path and the
// pooled path — the lifecycle hook that lets solve
// sessions release their worker teams.
func TestRunStateClosesStates(t *testing.T) {
	points := make([]int, 50)
	for _, workers := range []int{1, 4} {
		var built, closes atomic.Int64
		newState := func() (*closerState, error) {
			built.Add(1)
			return &closerState{closes: &closes}, nil
		}
		_, err := RunState(bg, points, newState,
			func(st *closerState, p int) (int, error) { return p, nil },
			workers)
		if err != nil {
			t.Fatal(err)
		}
		if built.Load() == 0 || closes.Load() != built.Load() {
			t.Fatalf("workers=%d: %d states built, %d closed", workers, built.Load(), closes.Load())
		}
	}
	// Non-closer states keep working untouched.
	if _, err := RunState(bg, points,
		func() (int, error) { return 0, nil },
		func(int, int) (int, error) { return 1, nil }, 0); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSweepEngineOverhead measures the engine's per-point dispatch
// cost with a trivial evaluation, serial vs pooled.
func BenchmarkSweepEngineOverhead(b *testing.B) {
	points := make([]int, 1024)
	eval := func(p int) (int, error) { return p + 1, nil }
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(bg, points, eval, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(bg, points, eval, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
