package faults

import (
	"math"
	"testing"
)

// FuzzParse checks the -fault grammar against arbitrary input: Parse
// never panics, and every fault it accepts passes Validate with finite
// severity and onset hour. The seed corpus lives in
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := Parse(spec)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a scenario Validate rejects: %v", spec, err)
		}
		for _, flt := range sc.Faults {
			for _, v := range []float64{flt.Severity, flt.OnsetHour} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("Parse(%q) accepted non-finite fault %+v", spec, flt)
				}
			}
		}
	})
}
