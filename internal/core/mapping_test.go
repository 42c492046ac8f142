package core

import (
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/workload"
)

func TestSelectConfigMinimizesPower(t *testing.T) {
	for _, b := range workload.All() {
		prof := workload.NewProfile(b)
		for _, q := range []workload.QoS{workload.QoS1x, workload.QoS2x, workload.QoS3x} {
			cfg, err := SelectConfig(prof, q)
			if err != nil {
				t.Fatalf("%s @%s: %v", b.Name, q, err)
			}
			if !q.Satisfied(b, cfg) {
				t.Fatalf("%s @%s: selected %v violates QoS", b.Name, q, cfg)
			}
			// No satisfying configuration may be cheaper.
			chosen := b.PackagePower(cfg, power.POLL)
			for _, e := range prof.Entries {
				if q.Satisfied(b, e.Config) && e.Power < chosen-1e-9 {
					t.Fatalf("%s @%s: %v (%.1f W) cheaper than selected %v (%.1f W)",
						b.Name, q, e.Config, e.Power, cfg, chosen)
				}
			}
		}
	}
}

func TestSelectConfigQoSMonotone(t *testing.T) {
	// Looser QoS must never require more power.
	for _, b := range workload.All() {
		prof := workload.NewProfile(b)
		c1, _ := SelectConfig(prof, workload.QoS1x)
		c2, _ := SelectConfig(prof, workload.QoS2x)
		c3, _ := SelectConfig(prof, workload.QoS3x)
		p1 := b.PackagePower(c1, power.POLL)
		p2 := b.PackagePower(c2, power.POLL)
		p3 := b.PackagePower(c3, power.POLL)
		if p2 > p1+1e-9 || p3 > p2+1e-9 {
			t.Fatalf("%s: power not monotone across QoS: %.1f %.1f %.1f", b.Name, p1, p2, p3)
		}
	}
}

func TestSelectConfigAtQoS1xUsesFullMachine(t *testing.T) {
	// §VIII-A: when no degradation is allowed, all approaches run at fmax
	// with the maximum cores/threads for at least some benchmarks; every
	// selection must still satisfy 1x.
	for _, b := range workload.All() {
		cfg, err := SelectConfig(workload.NewProfile(b), workload.QoS1x)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !workload.QoS1x.Satisfied(b, cfg) {
			t.Fatalf("%s: 1x violated by %v", b.Name, cfg)
		}
	}
}

func TestMapThreadsRowExclusive(t *testing.T) {
	// canneal tolerates 200 µs → C6 idles → row-exclusive mapping.
	b, _ := workload.ByName("canneal")
	cfg := workload.Config{Cores: 4, Threads: 8, Freq: power.FMin}
	m, err := MapThreads(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.IdleState == power.POLL {
		t.Fatalf("canneal should get a deep idle state, got %v", m.IdleState)
	}
	if got := MaxActivePerRow(m.ActiveCores); got != 1 {
		t.Fatalf("row-exclusive mapping has %d actives on one row", got)
	}
	if len(m.ActiveCores) != 4 {
		t.Fatalf("active count %d", len(m.ActiveCores))
	}
}

func TestMapThreadsPollBalanced(t *testing.T) {
	// raytrace tolerates only 1 µs → POLL idles → corner balancing.
	b, _ := workload.ByName("raytrace")
	cfg := workload.Config{Cores: 4, Threads: 4, Freq: power.FMax}
	m, err := MapThreads(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.IdleState != power.POLL {
		t.Fatalf("raytrace should be stuck at POLL, got %v", m.IdleState)
	}
	// Corner mapping: rows 0 and 3 carry the actives.
	rows := ActiveRowsHistogram(m.ActiveCores)
	if rows[0] != 2 || rows[3] != 2 || rows[1] != 0 || rows[2] != 0 {
		t.Fatalf("corner mapping expected, got row histogram %v", rows)
	}
}

func TestMapThreadsFullMachine(t *testing.T) {
	b, _ := workload.ByName("ferret")
	cfg := workload.Config{Cores: 8, Threads: 16, Freq: power.FMax}
	m, err := MapThreads(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ActiveCores) != 8 {
		t.Fatalf("full machine should use all 8 cores")
	}
	seen := map[int]bool{}
	for _, c := range m.ActiveCores {
		if c < 0 || c >= floorplan.NumCores || seen[c] {
			t.Fatalf("bad active set %v", m.ActiveCores)
		}
		seen[c] = true
	}
}

func TestMapThreadsInvalidConfig(t *testing.T) {
	b, _ := workload.ByName("vips")
	if _, err := MapThreads(b, workload.Config{Cores: 9, Threads: 9, Freq: power.FMax}); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestPlanEndToEnd(t *testing.T) {
	for _, b := range workload.All() {
		m, err := Plan(b, workload.QoS2x)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(m.ActiveCores) != m.Config.Cores {
			t.Fatalf("%s: %d actives for %d cores", b.Name, len(m.ActiveCores), m.Config.Cores)
		}
	}
}

func TestPackageState(t *testing.T) {
	b, _ := workload.ByName("canneal")
	m, err := Plan(b, workload.QoS3x)
	if err != nil {
		t.Fatal(err)
	}
	st := PackageState(b, m)
	var actives int
	for i, c := range st.Cores {
		if c.Active {
			actives++
			if c.DynWatts <= 0 {
				t.Fatalf("active core %d has no dynamic power", i)
			}
		} else if c.Idle != m.IdleState {
			t.Fatalf("idle core %d in %v, want %v", i, c.Idle, m.IdleState)
		}
	}
	if actives != m.Config.Cores {
		t.Fatalf("%d actives, want %d", actives, m.Config.Cores)
	}
	if st.Freq != m.Config.Freq {
		t.Fatal("frequency not propagated")
	}
}

// Property: for any core count 1..4 with a deep idle state, the proposed
// mapping never places two actives on the same row; and the active set is
// always distinct and in range.
func TestRowExclusiveProperty(t *testing.T) {
	b, _ := workload.ByName("streamcluster") // 200 µs tolerance → deep idle
	f := func(nc8 uint8) bool {
		nc := 1 + int(nc8)%4
		cfg := workload.Config{Cores: nc, Threads: nc, Freq: power.FMid}
		m, err := MapThreads(b, cfg)
		if err != nil {
			return false
		}
		if MaxActivePerRow(m.ActiveCores) != 1 {
			return false
		}
		seen := map[int]bool{}
		for _, c := range m.ActiveCores {
			if c < 0 || c >= floorplan.NumCores || seen[c] {
				return false
			}
			seen[c] = true
		}
		return len(m.ActiveCores) == nc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
