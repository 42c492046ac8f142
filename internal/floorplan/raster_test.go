package floorplan

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGridBasics(t *testing.T) {
	g := NewGrid(4, 2, 8, 2)
	if g.Cells() != 8 {
		t.Fatalf("Cells = %d", g.Cells())
	}
	if g.DX != 2 || g.DY != 1 {
		t.Fatalf("cell size %v×%v", g.DX, g.DY)
	}
	if g.Index(3, 1) != 7 {
		t.Fatalf("Index = %d", g.Index(3, 1))
	}
	cx, cy := g.CellCenter(0, 0)
	if cx != 1 || cy != 0.5 {
		t.Fatalf("center = (%v,%v)", cx, cy)
	}
	ix, iy := g.CellAt(7.9, 1.9)
	if ix != 3 || iy != 1 {
		t.Fatalf("CellAt = (%d,%d)", ix, iy)
	}
	// Clamping outside the grid.
	ix, iy = g.CellAt(-5, 100)
	if ix != 0 || iy != 1 {
		t.Fatalf("clamped CellAt = (%d,%d)", ix, iy)
	}
}

func TestRasterizeConservesPower(t *testing.T) {
	fp := BroadwellEP()
	for _, res := range []struct{ nx, ny int }{{10, 10}, {36, 27}, {52, 26}, {77, 41}} {
		grid := NewGrid(res.nx, res.ny, fp.Width, fp.Height)
		cm := Rasterize(fp, grid)
		power := map[string]float64{}
		var want float64
		for i, b := range fp.Blocks {
			p := float64(i+1) * 1.5
			power[b.Name] = p
			want += p
		}
		cells, err := cm.PowerMapInto(nil, power)
		if err != nil {
			t.Fatal(err)
		}
		var got float64
		for _, p := range cells {
			got += p
		}
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("grid %dx%d: power %v, want %v", res.nx, res.ny, got, want)
		}
	}
}

func TestRasterizeBlockFractionSumsToOne(t *testing.T) {
	fp := BroadwellEP()
	grid := NewGrid(40, 30, fp.Width, fp.Height)
	cm := Rasterize(fp, grid)
	for _, name := range cm.Blocks() {
		var s float64
		for _, f := range cm.BlockFraction(name) {
			if f < 0 {
				t.Fatalf("negative coverage in %s", name)
			}
			s += f
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("block %s coverage sums to %v", name, s)
		}
	}
}

func TestPowerMapUnknownBlock(t *testing.T) {
	fp := BroadwellEP()
	cm := Rasterize(fp, NewGrid(10, 10, fp.Width, fp.Height))
	if _, err := cm.PowerMapInto(nil, map[string]float64{"nope": 1}); err == nil {
		t.Fatal("unknown block must error")
	}
}

func TestPowerMapZeroPowerSkipped(t *testing.T) {
	fp := BroadwellEP()
	cm := Rasterize(fp, NewGrid(10, 10, fp.Width, fp.Height))
	cells, err := cm.PowerMapInto(nil, map[string]float64{"LLC": 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cells {
		if p != 0 {
			t.Fatal("zero-power block leaked power")
		}
	}
}

func TestRasterizeDeadAreaHasNoPower(t *testing.T) {
	fp := BroadwellEP()
	grid := NewGrid(60, 40, fp.Width, fp.Height)
	cm := Rasterize(fp, grid)
	power := map[string]float64{}
	for _, b := range fp.Blocks {
		power[b.Name] = 10
	}
	cells, err := cm.PowerMapInto(nil, power)
	if err != nil {
		t.Fatal(err)
	}
	// Cells wholly inside the east dead area north of the strips must be 0.
	llc, _ := fp.Block("LLC")
	deadStartX := llc.Rect.X + llc.Rect.W
	mem, _ := fp.Block("MemCtrl")
	for iy := 0; iy < grid.NY; iy++ {
		for ix := 0; ix < grid.NX; ix++ {
			r := grid.CellRect(ix, iy)
			if r.X >= deadStartX+1e-12 && r.Y+r.H <= mem.Rect.Y-1e-12 {
				if p := cells[grid.Index(ix, iy)]; p != 0 {
					t.Fatalf("dead cell (%d,%d) has power %v", ix, iy, p)
				}
			}
		}
	}
}

// Property: total power is conserved for any positive block powers and any
// reasonable grid resolution.
func TestRasterizeConservationProperty(t *testing.T) {
	fp := BroadwellEP()
	f := func(nx8, ny8 uint8, pCore, pLLC float64) bool {
		nx := 5 + int(nx8)%60
		ny := 5 + int(ny8)%60
		pc := math.Mod(math.Abs(pCore), 100) + 0.1
		pl := math.Mod(math.Abs(pLLC), 100) + 0.1
		if math.IsNaN(pc) || math.IsNaN(pl) {
			return true
		}
		cm := Rasterize(fp, NewGrid(nx, ny, fp.Width, fp.Height))
		power := map[string]float64{"Core1": pc, "LLC": pl}
		cells, err := cm.PowerMapInto(nil, power)
		if err != nil {
			return false
		}
		var got float64
		for _, p := range cells {
			got += p
		}
		return math.Abs(got-(pc+pl)) < 1e-9*(pc+pl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPowerMapIntoMatchesPowerMap: mapping into a dirty buffer must
// recycle it and return bit-identical cell powers to a fresh map.
func TestPowerMapIntoMatchesPowerMap(t *testing.T) {
	fp := BroadwellEP()
	cm := Rasterize(fp, NewGrid(10, 10, fp.Width, fp.Height))
	bp := map[string]float64{"Core1": 7.5, "Core5": 3.25, "LLC": 2, "MemCtrl": 6.3}
	fresh, err := cm.PowerMapInto(nil, bp)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, cm.Grid.Cells())
	for i := range buf {
		buf[i] = 999 // dirty: every cell must be overwritten
	}
	got, err := cm.PowerMapInto(buf, bp)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] {
		t.Fatal("PowerMapInto did not reuse the buffer")
	}
	for i := range fresh {
		if fresh[i] != got[i] {
			t.Fatalf("cell %d differs: %v vs %v", i, fresh[i], got[i])
		}
	}
	if _, err := cm.PowerMapInto(buf, map[string]float64{"bogus": 1}); err == nil {
		t.Fatal("unknown block must error")
	}
	// Too-small buffers are grown, not faulted.
	grown, err := cm.PowerMapInto(make([]float64, 3), bp)
	if err != nil || len(grown) != cm.Grid.Cells() {
		t.Fatalf("grow failed: len %d err %v", len(grown), err)
	}
}
