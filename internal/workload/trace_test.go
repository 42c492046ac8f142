package workload

import "testing"

func TestDiurnalTrace(t *testing.T) {
	tr := DiurnalTrace(24)
	if len(tr) != 24 {
		t.Fatalf("got %d hours", len(tr))
	}
	for h, f := range tr {
		if f < 0.3 || f > 1.0+1e-12 {
			t.Fatalf("hour %d factor %.3f outside [0.3, 1]", h, f)
		}
	}
	// Overnight valley, midday peak: 03:00 must sit at the floor, 15:00 at
	// the crest, and the morning ramp must be monotone.
	if tr[3] != tr[0] || tr[3] > 0.4 {
		t.Fatalf("overnight load %.3f should be the flat floor", tr[3])
	}
	if tr[15] < 0.99 {
		t.Fatalf("15:00 load %.3f should be the peak", tr[15])
	}
	for h := 8; h <= 15; h++ {
		if tr[h] < tr[h-1] {
			t.Fatalf("morning ramp not monotone at hour %d", h)
		}
	}
	// Deterministic, and wrapping past 24 h repeats the day.
	again := DiurnalTrace(48)
	for h := 0; h < 24; h++ {
		if again[h] != tr[h] || again[h+24] != tr[h] {
			t.Fatalf("hour %d: trace not deterministic/periodic", h)
		}
	}
	if DiurnalTrace(0) != nil {
		t.Fatal("non-positive hours must return nil")
	}
}
