package workload

import (
	"fmt"

	"repro/internal/power"
)

// Config is a workload execution configuration (Nc, Nt, f) as defined in
// §IV-B: the number of cores, the number of threads, and the core
// frequency.
type Config struct {
	Cores   int
	Threads int
	Freq    power.Frequency
}

// String formats the configuration the way the paper writes it.
func (c Config) String() string {
	return fmt.Sprintf("(%d,%d,%.1fGHz)", c.Cores, c.Threads, float64(c.Freq))
}

// Valid reports whether the configuration is inside the paper's space:
// 1..8 cores, Nt ∈ {Nc, 2·Nc} (one or two threads per core), and one of the
// three frequency levels.
func (c Config) Valid() bool {
	if c.Cores < 1 || c.Cores > 8 {
		return false
	}
	if c.Threads != c.Cores && c.Threads != 2*c.Cores {
		return false
	}
	for _, f := range power.Levels() {
		if c.Freq == f {
			return true
		}
	}
	return false
}

// Configs enumerates the full configuration space the paper's Algorithm 1
// searches: Nc ∈ {1..8} × Nt ∈ {Nc, 2Nc} × f ∈ {2.6, 2.9, 3.2}.
func Configs() []Config {
	var out []Config
	for nc := 1; nc <= 8; nc++ {
		for _, tpc := range []int{1, 2} {
			for _, f := range power.Levels() {
				out = append(out, Config{Cores: nc, Threads: nc * tpc, Freq: f})
			}
		}
	}
	return out
}

// Fig3Configs returns the five configurations plotted in Fig. 3, all at
// FMax: (2,4) (4,4) (4,8) (8,8) (8,16).
func Fig3Configs() []Config {
	return []Config{
		{Cores: 2, Threads: 4, Freq: power.FMax},
		{Cores: 4, Threads: 4, Freq: power.FMax},
		{Cores: 4, Threads: 8, Freq: power.FMax},
		{Cores: 8, Threads: 8, Freq: power.FMax},
		{Cores: 8, Threads: 16, Freq: power.FMax},
	}
}

// QoS is the paper's quality-of-service constraint: the maximum allowable
// slow-down versus the native baseline (8 cores, 16 threads, FMax). The
// paper evaluates 1x, 2x and 3x.
type QoS float64

// The paper's three QoS levels (§IV-B).
const (
	QoS1x QoS = 1
	QoS2x QoS = 2
	QoS3x QoS = 3
)

// String formats the QoS level the way the paper writes it.
func (q QoS) String() string { return fmt.Sprintf("%gx", float64(q)) }

// Satisfied reports whether benchmark b under configuration c meets the QoS
// constraint: normalized execution time within the allowed degradation.
// A small epsilon admits the baseline configuration itself at QoS 1x.
func (q QoS) Satisfied(b Benchmark, c Config) bool {
	return b.NormalizedTime(c) <= float64(q)*(1+1e-9)
}

// Profile is the offline-profiled (power, QoS) table of one benchmark that
// Algorithm 1 consumes: the P and Q vectors of the paper.
type Profile struct {
	Bench   Benchmark
	Entries []ProfileEntry
}

// ProfileEntry is one configuration's profiled power and normalized time.
type ProfileEntry struct {
	Config   Config
	Power    float64 // package watts with POLL idles (profiling default)
	NormTime float64 // execution time normalized to the native baseline
}

// NewProfile profiles the benchmark over the full configuration space,
// mirroring the offline profiling pass of §VII.
func NewProfile(b Benchmark) *Profile {
	var p Profile
	p.Bench = b
	for _, c := range Configs() {
		p.Entries = append(p.Entries, ProfileEntry{
			Config:   c,
			Power:    b.PackagePower(c, power.POLL),
			NormTime: b.NormalizedTime(c),
		})
	}
	return &p
}
