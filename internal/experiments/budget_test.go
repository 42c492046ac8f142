package experiments

import (
	"runtime"
	"testing"
)

// TestSplitBudget pins the shared-core-budget rules: explicit settings
// are honored, derived settings never oversubscribe GOMAXPROCS, and the
// auto mode fills the machine width-first. The single-point rows are the
// split of the studies that run their points serially through one worker
// (the resolution-scaling ladder, the single-solve experiments).
// GOMAXPROCS is pinned to 8 so the arithmetic is meaningful on any host;
// thread-count invariance of results makes the temporary change safe for
// concurrently scheduled goroutines.
func TestSplitBudget(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	cases := []struct {
		name         string
		in           RunConfig
		points       int
		wantW, wantT int
	}{
		{name: "auto wide sweep", in: RunConfig{}, points: 13, wantW: 8, wantT: 1},
		{name: "auto narrow sweep", in: RunConfig{}, points: 2, wantW: 2, wantT: 4},
		{name: "auto single point", in: RunConfig{}, points: 1, wantW: 1, wantT: 8},
		{name: "single point, explicit workers", in: RunConfig{Workers: 3}, points: 1, wantW: 1, wantT: 8},
		{name: "single point, explicit threads", in: RunConfig{Threads: 2}, points: 1, wantW: 1, wantT: 2},
		{name: "explicit workers", in: RunConfig{Workers: 4}, points: 13, wantW: 4, wantT: 2},
		{name: "explicit serial workers", in: RunConfig{Workers: 1}, points: 13, wantW: 1, wantT: 8},
		{name: "explicit threads", in: RunConfig{Threads: 4}, points: 13, wantW: 2, wantT: 4},
		{name: "both explicit", in: RunConfig{Workers: 5, Threads: 3}, points: 13, wantW: 5, wantT: 3},
		{name: "threads over budget", in: RunConfig{Threads: 16}, points: 13, wantW: 1, wantT: 16},
		{name: "workers capped by points", in: RunConfig{}, points: 3, wantW: 3, wantT: 2},
		{name: "explicit workers above points", in: RunConfig{Workers: 8}, points: 2, wantW: 2, wantT: 4},
		{name: "zero points", in: RunConfig{}, points: 0, wantW: 1, wantT: 8},
	}
	for _, c := range cases {
		got := c.in.SplitBudget(c.points)
		if got.Workers != c.wantW || got.Threads != c.wantT {
			t.Errorf("%s: got workers=%d threads=%d, want %d/%d",
				c.name, got.Workers, got.Threads, c.wantW, c.wantT)
		}
		if got.Workers < 1 || got.Threads < 1 {
			t.Errorf("%s: non-positive resolution %+v", c.name, got)
		}
		// Re-splitting a resolved config is a no-op: both fields explicit.
		again := got.SplitBudget(c.points)
		if again.Workers != got.Workers || again.Threads != got.Threads {
			t.Errorf("%s: resolve not idempotent: %+v vs %+v", c.name, again, got)
		}
	}
}
