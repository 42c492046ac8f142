package cosim

// Coupled-solve benchmarks comparing a session per solve against a
// reused session:
//
//	go test ./internal/cosim -bench=Session -benchmem
//
// "fresh" builds a new session (and workspace) for every solve;
// "session-cold" reuses buffers but seeds every solve like a cold one
// (the pooled-sweep configuration); "session-warm" additionally carries
// the previous converged field and flux — the governor/bisection steady
// state, where the coupled fixed point collapses to a refinement pass.

import (
	"testing"

	"repro/internal/thermosyphon"
)

func benchSystem(b *testing.B) (*System, map[string]float64, thermosyphon.Operating) {
	b.Helper()
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		b.Fatal(err)
	}
	return sys, sys.Power.BlockPowers(fullLoadState(2.2)), thermosyphon.DefaultOperating()
}

func BenchmarkCosimSession(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		sys, bp, op := benchSystem(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.NewSession().SolveSteadyPower(nil, bp, op); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session-cold", func(b *testing.B) {
		sys, bp, op := benchSystem(b)
		ses := sys.NewSession(CarryWarmStart(false))
		if _, err := ses.SolveSteadyPower(nil, bp, op); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ses.SolveSteadyPower(nil, bp, op); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session-warm", func(b *testing.B) {
		sys, bp, op := benchSystem(b)
		ses := sys.NewSession()
		if _, err := ses.SolveSteadyPower(nil, bp, op); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ses.SolveSteadyPower(nil, bp, op); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCosimSessionTransient compares a transient step before and
// after warm-up (the first step sizes the buffers; the rest are free of
// heap traffic).
func BenchmarkCosimSessionTransient(b *testing.B) {
	sys, bp, op := benchSystem(b)
	sim, err := sys.NewSession().Transient(op, 30)
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Step(0.25, bp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(0.25, bp); err != nil {
			b.Fatal(err)
		}
	}
}
