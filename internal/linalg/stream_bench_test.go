package linalg

import "testing"

// streamN is the triad working-set length: 3 × 16 MiB of float64, far
// beyond any last-level cache, so the measured rate is main-memory
// bandwidth rather than cache bandwidth.
const streamN = 1 << 21

// BenchmarkStreamTriad is the STREAM triad (a[i] = b[i] + s·c[i]) on this
// host — the canonical memory-bandwidth ceiling every stencil and smoother
// kernel is judged against: dividing a kernel bench's MB/s by this one's
// reads as "kernel X at Y% of measured memory bandwidth" instead of a bare
// ns/op. Bytes per element follow the STREAM convention: 8 B read from b, 8 B
// read from c, 8 B written to a (write-allocate traffic not counted), so
// fractions computed against it are conservative.
func BenchmarkStreamTriad(b *testing.B) {
	dst := make(Vector, streamN)
	src1 := make(Vector, streamN)
	src2 := make(Vector, streamN)
	for i := range src1 {
		src1[i] = float64(i)
		src2[i] = float64(streamN - i)
	}
	const scalar = 3.0
	b.ReportAllocs()
	b.SetBytes(int64(streamN * 3 * 8))
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := range dst {
			dst[i] = src1[i] + scalar*src2[i]
		}
	}
	if dst[1] == 0 { // keep the kernel from being optimized away
		b.Fatal("triad produced zeros")
	}
}
