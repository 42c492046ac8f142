package thermal

import (
	"strings"
	"testing"
)

// TestParseSolverRoundTrip: every solver parses back from its flag
// spelling, and the spellings of deleted modes are refused with an error
// that lists the valid ones.
func TestParseSolverRoundTrip(t *testing.T) {
	for _, s := range []Solver{SolverCG, SolverMGPCG} {
		got, err := ParseSolver(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSolver(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, name := range []string{"mg", "mgpcg32", "mgpcg-cheb"} {
		_, err := ParseSolver(name)
		if err == nil {
			t.Errorf("ParseSolver(%q) accepted a removed solver", name)
			continue
		}
		if !strings.Contains(err.Error(), "cg|mgpcg)") {
			t.Errorf("ParseSolver(%q) error %q does not list cg|mgpcg", name, err)
		}
	}
}
