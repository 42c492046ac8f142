package thermosyphon

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/linalg"
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

// ChannelReport marches every channel exactly as Evaporate does and
// returns per-channel summaries. The condenser and loop are solved for the
// aggregate heat first, so the report is consistent with the State that
// Evaporate would produce.
func (d *Design) ChannelReport(grid floorplan.Grid, cellHeat []float64, op Operating) ([]ChannelSummary, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := op.Validate(); err != nil {
		return nil, err
	}
	if len(cellHeat) != grid.Cells() {
		return nil, fmt.Errorf("thermosyphon: heat vector has %d cells, want %d", len(cellHeat), grid.Cells())
	}
	var q float64
	for _, w := range cellHeat {
		if w > 0 {
			q += w
		}
	}
	if q < 1 {
		q = 1
	}
	cond, err := d.Condense(q, op)
	if err != nil {
		return nil, err
	}
	loop, err := d.SolveLoop(q, cond.TsatC)
	if err != nil {
		return nil, err
	}
	nCh := channelCount(d.Orientation, grid)
	mCh := loop.MassFlowKgS / float64(nCh)
	hfg := d.Fluid.Hfg(cond.TsatC)
	cellArea := grid.DX * grid.DY
	boil := d.boilingAt(cond.TsatC)

	out := make([]ChannelSummary, nCh)
	for ch := 0; ch < nCh; ch++ {
		path := channelPath(d.Orientation, grid, ch)
		sum := ChannelSummary{Channel: ch, DryoutPos: 1, MinH: math.Inf(1)}
		x := 0.0
		for pos, c := range path {
			w := math.Max(cellHeat[c], 0)
			sum.HeatW += w
			xMid := linalg.Clamp(x+0.5*w/(mCh*hfg), 0, 0.99)
			h := boil.htc(xMid, w/cellArea) * d.AreaEnhancement
			if h < sum.MinH {
				sum.MinH = h
			}
			if h > sum.MaxH {
				sum.MaxH = h
			}
			xNew := linalg.Clamp(x+w/(mCh*hfg), 0, 0.99)
			if x <= boil.xc && xNew > boil.xc && sum.DryoutPos == 1 {
				sum.DryoutPos = float64(pos) / float64(len(path))
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
