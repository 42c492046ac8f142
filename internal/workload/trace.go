package workload

import "math"

// DiurnalTrace returns hourly fleet-load factors for a 24-hour datacenter
// day: a nightly valley, a morning ramp, a sustained business-hours
// plateau with a midday peak, and an evening tail — the canonical
// double-shoulder utilization curve of interactive fleets. Factors
// multiply the fleet's per-core dynamic power; the shape is a fixed
// closed form (a raised cosine over the working day on a base load), so
// the trace is deterministic and needs no seed. hours must be positive;
// values beyond 24 wrap around the day.
func DiurnalTrace(hours int) []float64 {
	if hours <= 0 {
		return nil
	}
	const (
		base = 0.35 // overnight floor of the load factor
		peak = 1.0  // business-hours crest
	)
	out := make([]float64, hours)
	for h := 0; h < hours; h++ {
		hod := float64(h % 24)
		// Working day spans 07:00–23:00; the raised cosine peaks at 15:00.
		if hod < 7 || hod >= 23 {
			out[h] = base
			continue
		}
		x := (hod - 7) / 16 // 0 at 07:00, 1 at 23:00
		out[h] = base + (peak-base)*0.5*(1-math.Cos(2*math.Pi*x))
	}
	return out
}
