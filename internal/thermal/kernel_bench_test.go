package thermal

// Memory-bandwidth-honest kernel benchmarks. Every b.SetBytes below
// counts the kernel's *nominal stream traffic* — each array the pass
// reads or writes, once per cell, at its element width — so the MB/s Go
// reports is directly comparable with BenchmarkStreamTriad's measured
// ceiling (divide the two for the kernel's fraction of peak bandwidth).
// The accounting deliberately ignores cache reuse of neighbor loads
// (gathers re-read x at up to 7 offsets, but 6 of them are cache hits on
// any non-pathological grid) and write-allocate traffic, matching the
// STREAM convention, so fractions are conservative and stable across
// grid sizes.
//
// Per-cell stream bytes at float64:
//
//	smooth sweep:    b + x(rw) + gx + gy + gz + invDiag      = 7×8 B
//	residual pass:   b + x + r(w) + gx + gy + gz + diag      = 7×8 B
//	fused pass:      the unfused pair's streams minus nothing —
//	                 the win is locality (x, b and the coefficient
//	                 arrays are hot for the residual half), so both
//	                 variants charge the same 14×8 B and the fused
//	                 kernel shows up as higher MB/s.

import (
	"fmt"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// benchOperator assembles a filled steady operator, rhs and iterate at
// n×n on the Broadwell package.
func benchOperator(b *testing.B, n int) (*Model, *Workspace, linalg.Vector, linalg.Vector) {
	b.Helper()
	m, power, bc := xvalModel(b, floorplan.XeonE5Package(), n, n)
	w := m.NewWorkspace()
	m.fillOperator(&w.op, bc, 0)
	rhs := make(linalg.Vector, m.n)
	if err := m.rhsLayersInto(rhs, power, bc); err != nil {
		b.Fatal(err)
	}
	return m, w, rhs, parField(m.n)
}

// BenchmarkStencilSmoothResidual compares the fused smooth+residual pass
// against the unfused pair it replaces (bit-identical output by the
// FusedSmoother contract), across sizes and team widths. Both variants
// charge the unfused pair's nominal 14×8 B/cell, so the fused variant's
// MB/s advantage is exactly its locality win.
func BenchmarkStencilSmoothResidual(b *testing.B) {
	for _, n := range []int{128, 256} {
		m, w, rhs, x0 := benchOperator(b, n)
		r := make(linalg.Vector, m.n)
		x := x0.Clone()
		for _, threads := range []int{1, 2, 4, 8} {
			for _, variant := range []string{"unfused", "fused"} {
				b.Run(fmt.Sprintf("%d/%s/threads=%d", n, variant, threads), func(b *testing.B) {
					w.SetThreads(threads)
					copy(x, x0)
					w.op.SmoothResidual(rhs, x, r) // warm the team
					b.ReportAllocs()
					b.SetBytes(int64(m.n * 14 * 8))
					b.ResetTimer()
					if variant == "fused" {
						for i := 0; i < b.N; i++ {
							w.op.SmoothResidual(rhs, x, r)
						}
					} else {
						for i := 0; i < b.N; i++ {
							w.op.Smooth(rhs, x, false)
							w.op.Residual(rhs, x, r)
						}
					}
				})
			}
		}
		w.Close()
	}
}
