package thermosyphon

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
)

// ChannelSummary describes the state of one evaporator micro-channel under
// a heat-flux distribution — the design-debugging view the §VI studies use
// to see where dryout lands relative to the die.
type ChannelSummary struct {
	// Channel is the channel index (grid row for E-W orientations, grid
	// column for N-S).
	Channel int
	// HeatW is the total heat the channel absorbs.
	HeatW float64
	// ExitQuality is the vapor quality at the channel outlet.
	ExitQuality float64
	// DryoutPos is the fractional position along the channel where the
	// critical quality is crossed (1.0 = never).
	DryoutPos float64
	// MinH and MaxH are the extreme local HTCs (W/m²K, wetted area).
	MinH, MaxH float64
}

// ChannelReport runs EvaporateInto's march and returns per-channel
// summaries read from the state it produces: the heat and HTC extremes of
// each channel's cells, and its quality replayed with the march's own mass
// flow, latent heat and critical quality. The report therefore describes
// exactly the boundary condition a solve on the same heat would use.
func (d *Design) ChannelReport(grid floorplan.Grid, cellHeat []float64, op Operating) ([]ChannelSummary, error) {
	st, err := d.EvaporateInto(nil, grid, cellHeat, op)
	if err != nil {
		return nil, err
	}
	nCh := channelCount(d.Orientation, grid)
	mh := d.channelFlowHfg(st, nCh)
	xc := d.CritQuality()

	out := make([]ChannelSummary, nCh)
	for ch := range out {
		start, stride, n := channelSpan(d.Orientation, grid, ch)
		sum := ChannelSummary{Channel: ch, DryoutPos: 1, MinH: math.Inf(1)}
		x := 0.0
		for pos := 0; pos < n; pos++ {
			c := start + pos*stride
			w := math.Max(cellHeat[c], 0)
			sum.HeatW += w
			sum.MinH = math.Min(sum.MinH, st.H[c])
			sum.MaxH = math.Max(sum.MaxH, st.H[c])
			xNew := qualityAfter(x, w, mh)
			if x <= xc && xNew > xc && sum.DryoutPos == 1 {
				sum.DryoutPos = float64(pos) / float64(n)
			}
			x = xNew
		}
		sum.ExitQuality = x
		out[ch] = sum
	}
	return out, nil
}

// WorstChannel returns the channel with the highest exit quality. The
// march clamps quality at 0.99, so several saturated channels can tie;
// among them the one that dries out earliest is worst, and after that the
// one carrying the most heat.
func WorstChannel(report []ChannelSummary) (ChannelSummary, error) {
	if len(report) == 0 {
		return ChannelSummary{}, fmt.Errorf("thermosyphon: empty channel report")
	}
	worst := report[0]
	for _, c := range report[1:] {
		if c.ExitQuality != worst.ExitQuality {
			if c.ExitQuality > worst.ExitQuality {
				worst = c
			}
		} else if c.DryoutPos != worst.DryoutPos {
			if c.DryoutPos < worst.DryoutPos {
				worst = c
			}
		} else if c.HeatW > worst.HeatW {
			worst = c
		}
	}
	return worst, nil
}
