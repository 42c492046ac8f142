package power

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/floorplan"
)

// Uncore power model constants (§IV-C2): a 9 W constant component plus an
// 8 W swing proportional to the uncore frequency across 1.2–2.8 GHz, plus
// up to 2 W for the 25 MB LLC in the worst case.
const (
	UncoreStaticWatts       = 9.0
	UncoreProportionalWatts = 8.0
	LLCMaxWatts             = 2.0
)

// DynFreqExponent governs how per-core dynamic power scales with frequency:
// P ∝ (f/fmax)^DynFreqExponent, folding the voltage/frequency curve of the
// 14 nm process into a single exponent.
const DynFreqExponent = 2.3

// SMTDynFactor is the dynamic power uplift when a core runs two hardware
// threads instead of one.
const SMTDynFactor = 1.15

// UncorePower returns the uncore (memory controller + IO, excluding LLC)
// power at the given uncore frequency, clamped to the valid range.
func UncorePower(uncoreFreqGHz float64) float64 {
	f := math.Min(math.Max(uncoreFreqGHz, UncoreFreqMin), UncoreFreqMax)
	frac := (f - UncoreFreqMin) / (UncoreFreqMax - UncoreFreqMin)
	return UncoreStaticWatts + UncoreProportionalWatts*frac
}

// LLCPower returns the last-level-cache power for a cache activity factor
// in [0,1]; activity 1 is the paper's 2 W worst case.
func LLCPower(activity float64) float64 {
	a := math.Min(math.Max(activity, 0), 1)
	return 0.4 + (LLCMaxWatts-0.4)*a
}

// DynScale returns the relative dynamic power at frequency f versus FMax.
func DynScale(f Frequency) float64 {
	return math.Pow(float64(f)/float64(FMax), DynFreqExponent)
}

// CoreLoad describes the state of one core for power-map assembly.
type CoreLoad struct {
	// Active indicates the core is executing workload threads.
	Active bool
	// DynWatts is the dynamic power of the core's workload at the current
	// frequency (already frequency-scaled), excluding the active-state
	// baseline. Ignored when !Active.
	DynWatts float64
	// Idle is the C-state of an inactive core. Ignored when Active.
	Idle CState
}

// PackageState is a full description of the CPU package operating point.
type PackageState struct {
	Freq       Frequency
	UncoreFreq float64 // GHz
	LLC        float64 // cache activity factor in [0,1]
	Cores      [floorplan.NumCores]CoreLoad
}

// Model assembles per-block power maps for a floorplan with the canonical
// Broadwell block names. It holds no state: the block names are fixed, so
// NewModel only checks that the floorplan has them.
type Model struct{}

// NewModel returns a power model for the given floorplan, which must
// contain the canonical Broadwell block names.
func NewModel(fp *floorplan.Floorplan) (*Model, error) {
	for _, name := range []string{"LLC", "MemCtrl", "Uncore"} {
		if _, ok := fp.Block(name); !ok {
			return nil, fmt.Errorf("power: floorplan lacks block %q", name)
		}
	}
	for i := 0; i < floorplan.NumCores; i++ {
		if _, ok := fp.Block(floorplan.CoreName(i)); !ok {
			return nil, fmt.Errorf("power: floorplan lacks %s", floorplan.CoreName(i))
		}
	}
	return &Model{}, nil
}

// CorePower returns the power of a single core in the given load state:
// active cores draw the POLL (clocked, ready) baseline plus their dynamic
// power; idle cores draw their C-state share of Table I.
func CorePower(load CoreLoad, f Frequency) float64 {
	if load.Active {
		return CStatePerCore(POLL, f) + load.DynWatts
	}
	return CStatePerCore(load.Idle, f)
}

// BlockPowers maps the package state onto per-block powers in watts.
// Reserved (fused-off) blocks draw nothing.
func (m *Model) BlockPowers(st PackageState) map[string]float64 {
	return m.BlockPowersInto(nil, st)
}

// BlockPowersInto is BlockPowers reusing a caller-owned map (allocated
// when nil and returned). The key set is identical on every call, so a
// recycled map is overwritten completely and the call allocates nothing —
// the variant cosim solve sessions use.
func (m *Model) BlockPowersInto(out map[string]float64, st PackageState) map[string]float64 {
	if out == nil {
		out = make(map[string]float64, floorplan.NumCores+3)
	}
	for i := 0; i < floorplan.NumCores; i++ {
		out[floorplan.CoreName(i)] = CorePower(st.Cores[i], st.Freq)
	}
	out["LLC"] = LLCPower(st.LLC)
	uncore := UncorePower(st.UncoreFreq)
	// Split the uncore budget between the memory-controller strip and the
	// queue/uncore/IO strip proportional to their datasheet share.
	out["MemCtrl"] = 0.45 * uncore
	out["Uncore"] = 0.55 * uncore
	return out
}

// SumBlockPowers totals a per-block power map in sorted block order so
// repeated calls are bit-identical (map iteration order is random and
// float addition is not associative).
func SumBlockPowers(bp map[string]float64) float64 {
	names := make([]string, 0, len(bp))
	for n := range bp {
		names = append(names, n)
	}
	sort.Strings(names)
	var s float64
	for _, n := range names {
		s += bp[n]
	}
	return s
}

// TotalPower sums the package power for the state.
func (m *Model) TotalPower(st PackageState) float64 {
	return SumBlockPowers(m.BlockPowers(st))
}
