package thermosyphon

import (
	"math"
	"testing"
)

func TestChannelReportUniform(t *testing.T) {
	d := DefaultDesign()
	grid := testGrid()
	rep, err := d.ChannelReport(grid, uniformHeat(grid, 70), DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != grid.NY { // E-W channels: one per row
		t.Fatalf("got %d channels, want %d", len(rep), grid.NY)
	}
	var total float64
	for _, c := range rep {
		total += c.HeatW
		if c.ExitQuality <= 0 || c.ExitQuality > 0.99 {
			t.Fatalf("channel %d exit quality %v", c.Channel, c.ExitQuality)
		}
		if c.MinH <= 0 || c.MaxH < c.MinH {
			t.Fatalf("channel %d HTC range [%v,%v]", c.Channel, c.MinH, c.MaxH)
		}
		if c.DryoutPos < 0 || c.DryoutPos > 1 {
			t.Fatalf("channel %d dryout pos %v", c.Channel, c.DryoutPos)
		}
	}
	if math.Abs(total-70) > 1e-9 {
		t.Fatalf("channel heats sum to %v, want 70", total)
	}
	// Uniform load: all channels identical.
	for _, c := range rep[1:] {
		if math.Abs(c.ExitQuality-rep[0].ExitQuality) > 1e-9 {
			t.Fatal("uniform load must give identical channels")
		}
	}
}

func TestChannelReportVertical(t *testing.T) {
	d := DefaultDesign()
	d.Orientation = InletNorth
	grid := testGrid()
	rep, err := d.ChannelReport(grid, uniformHeat(grid, 50), DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != grid.NX { // N-S channels: one per column
		t.Fatalf("got %d channels, want %d", len(rep), grid.NX)
	}
}

func TestChannelReportLoadedChannelDriesFirst(t *testing.T) {
	d := DefaultDesign()
	grid := testGrid()
	q := make([]float64, grid.Cells())
	// Put 40 W on channel 10, nothing elsewhere.
	for ix := 0; ix < grid.NX; ix++ {
		q[grid.Index(ix, 10)] = 40.0 / float64(grid.NX)
	}
	rep, err := d.ChannelReport(grid, q, DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	worst, err := WorstChannel(rep)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Channel != 10 {
		t.Fatalf("worst channel %d, want 10", worst.Channel)
	}
	if worst.DryoutPos >= 1 {
		t.Fatal("fully loaded channel must dry out")
	}
	// Unloaded channels stay liquid.
	if rep[0].ExitQuality > 0.01 {
		t.Fatalf("unloaded channel quality %v", rep[0].ExitQuality)
	}
}

func TestChannelReportErrors(t *testing.T) {
	d := DefaultDesign()
	grid := testGrid()
	if _, err := d.ChannelReport(grid, make([]float64, 1), DefaultOperating()); err == nil {
		t.Fatal("bad length must error")
	}
	bad := DefaultDesign()
	bad.Fluid = nil
	if _, err := bad.ChannelReport(grid, uniformHeat(grid, 10), DefaultOperating()); err == nil {
		t.Fatal("invalid design must error")
	}
	if _, err := WorstChannel(nil); err == nil {
		t.Fatal("empty report must error")
	}
}

// TestChannelReportConsistentWithEvaporate: under a non-uniform load and
// every orientation, each channel's heat and HTC extremes are those of the
// cells its span lists in EvaporateInto's state, each channel's exit
// quality is its energy balance at the state's mass flow and latent heat,
// and the worst exit quality is the state's MaxQuality.
func TestChannelReportConsistentWithEvaporate(t *testing.T) {
	grid := testGrid()
	heat := make([]float64, grid.Cells())
	for iy := 0; iy < grid.NY; iy++ {
		for ix := 0; ix < grid.NX; ix++ {
			// A west-heavy gradient with a hot spot: some channels dry
			// out, others stay well below the critical quality.
			w := 0.02 + 0.1*float64(grid.NX-ix)/float64(grid.NX)
			if ix >= 5 && ix < 12 && iy >= 8 && iy < 13 {
				w += 0.6
			}
			heat[grid.Index(ix, iy)] = w
		}
	}
	for _, o := range Orientations() {
		d := DefaultDesign()
		d.Orientation = o
		rep, err := d.ChannelReport(grid, heat, DefaultOperating())
		if err != nil {
			t.Fatal(err)
		}
		st, err := d.EvaporateInto(nil, grid, heat, DefaultOperating())
		if err != nil {
			t.Fatal(err)
		}
		if len(rep) != channelCount(o, grid) {
			t.Fatalf("%v: %d channels, want %d", o, len(rep), channelCount(o, grid))
		}
		mh := st.Loop.MassFlowKgS / float64(len(rep)) * d.Fluid.Hfg(st.Condenser.TsatC)
		var dried bool
		for ch, c := range rep {
			start, stride, n := channelSpan(o, grid, ch)
			heatW, minH, maxH := 0.0, math.Inf(1), math.Inf(-1)
			for pos := 0; pos < n; pos++ {
				cell := start + pos*stride
				heatW += heat[cell]
				minH = math.Min(minH, st.H[cell])
				maxH = math.Max(maxH, st.H[cell])
			}
			if c.Channel != ch || c.HeatW != heatW || c.MinH != minH || c.MaxH != maxH {
				t.Fatalf("%v ch %d: report {ch %d, %v W, H [%v,%v]}, march {%v W, H [%v,%v]}",
					o, ch, c.Channel, c.HeatW, c.MinH, c.MaxH, heatW, minH, maxH)
			}
			// Quality only rises along a channel and stays at the clamp
			// once there, so the exit quality is the clamped balance.
			if want := math.Min(heatW/mh, 0.99); math.Abs(c.ExitQuality-want) > 1e-12 {
				t.Fatalf("%v ch %d: exit quality %v, energy balance %v", o, ch, c.ExitQuality, want)
			}
			dried = dried || c.DryoutPos < 1
		}
		if !dried {
			t.Errorf("%v: no channel dries out; the load does not exercise dryout", o)
		}
		worst, err := WorstChannel(rep)
		if err != nil {
			t.Fatal(err)
		}
		if worst.ExitQuality != st.MaxQuality {
			t.Fatalf("%v: report worst quality %v vs state max %v", o, worst.ExitQuality, st.MaxQuality)
		}
	}
}

// TestWorstChannelBreaksTies: among channels at the clamped exit quality
// the earliest dryout is worst, then the most heat; a higher quality
// still beats both.
func TestWorstChannelBreaksTies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		report []ChannelSummary
		want   int
	}{
		{"quality first", []ChannelSummary{
			{Channel: 0, ExitQuality: 0.98, DryoutPos: 0.1, HeatW: 9},
			{Channel: 1, ExitQuality: 0.99, DryoutPos: 0.6, HeatW: 5},
		}, 1},
		{"earliest dryout", []ChannelSummary{
			{Channel: 4, ExitQuality: 0.99, DryoutPos: 0.40, HeatW: 5.8},
			{Channel: 5, ExitQuality: 0.99, DryoutPos: 0.33, HeatW: 6.5},
			{Channel: 6, ExitQuality: 0.99, DryoutPos: 0.27, HeatW: 6.8},
			{Channel: 7, ExitQuality: 0.99, DryoutPos: 0.35, HeatW: 6.9},
		}, 6},
		{"most heat", []ChannelSummary{
			{Channel: 2, ExitQuality: 0.99, DryoutPos: 0.5, HeatW: 6},
			{Channel: 3, ExitQuality: 0.99, DryoutPos: 0.5, HeatW: 7},
			{Channel: 4, ExitQuality: 0.99, DryoutPos: 0.5, HeatW: 6.5},
		}, 3},
		{"full tie keeps the lowest index", []ChannelSummary{
			{Channel: 0, ExitQuality: 0.2, DryoutPos: 1, HeatW: 3},
			{Channel: 1, ExitQuality: 0.2, DryoutPos: 1, HeatW: 3},
		}, 0},
	} {
		worst, err := WorstChannel(tc.report)
		if err != nil {
			t.Fatal(err)
		}
		if worst.Channel != tc.want {
			t.Errorf("%s: worst channel %d, want %d", tc.name, worst.Channel, tc.want)
		}
	}
}
