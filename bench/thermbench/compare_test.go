package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, tc := range []struct {
		in   []float64
		want quartiles
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, quartiles{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, quartiles{1, 2, 3}},
	} {
		got := quartilesOf(tc.in)
		if math.Abs(got.q1-tc.want.q1) > 1e-12 || math.Abs(got.med-tc.want.med) > 1e-12 || math.Abs(got.q3-tc.want.q3) > 1e-12 {
			t.Errorf("quartilesOf(%v) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		better string
		floor  float64
		want   string
	}{
		{"same", base, "lower", 0, "unchanged"},
		{"slower", shift(base, 1.2), "lower", 0, "regression"},
		{"faster", shift(base, 0.8), "lower", 0, "gain"},
		{"more throughput", shift(base, 1.2), "higher", 0, "gain"},
		{"less throughput", shift(base, 0.8), "higher", 0, "regression"},
		{"noisy", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, "lower", 0, "unresolved"},
		// A floor wider than the bound's share absorbs both the shift and
		// the noise until the change is worse by more than the floor.
		{"slower within floor", shift(base, 1.2), "lower", 30, "unchanged"},
		{"noisy within floor", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, "lower", 50, "unchanged"},
		{"slower past floor", shift(base, 1.4), "lower", 30, "regression"},
	} {
		if got := compareMetric(base, tc.change, tc.better, 0.1, tc.floor).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if got := compareMetric(base, shift(base, 1.2), "lower", 0, 0).verdict; got != "not gated" {
		t.Errorf("ungated slowdown: verdict %q", got)
	}
	if got := compareMetric(base, shift(base, 0.8), "lower", 0, 0).verdict; got != "gain (not gated)" {
		t.Errorf("ungated speed-up: verdict %q", got)
	}
}
