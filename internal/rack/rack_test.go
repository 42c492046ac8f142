package rack

import "testing"

// TestSharedLoopBoundaryErrors: a negative blade heat or a loop without
// water flow has no boundary.
func TestSharedLoopBoundaryErrors(t *testing.T) {
	loop := SharedLoop{SetpointC: 30, PerBladeFlowKgH: 7, AmbientC: 35}
	if _, err := loop.Boundary([]float64{-5}); err == nil {
		t.Fatal("negative heat must error")
	}
	bad := SharedLoop{SetpointC: 30, PerBladeFlowKgH: 0, AmbientC: 35}
	if _, err := bad.Boundary([]float64{10}); err == nil {
		t.Fatal("zero flow must error")
	}
}

func TestSharedLoopBoundaryIsLoadCoupled(t *testing.T) {
	loop := SharedLoop{SetpointC: 27, ApproachKPerKW: 0.5, PerBladeFlowKgH: 7, AmbientC: 35}
	light, err := loop.Boundary([]float64{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := loop.Boundary([]float64{150, 150})
	if err != nil {
		t.Fatal(err)
	}
	if light.SupplyC <= loop.SetpointC {
		t.Fatalf("loaded supply %.3f must exceed the zero-load setpoint %.1f", light.SupplyC, loop.SetpointC)
	}
	if heavy.SupplyC <= light.SupplyC {
		t.Fatalf("supply must rise with load: %.3f (300 W) vs %.3f (100 W)", heavy.SupplyC, light.SupplyC)
	}
	wantSupply := 27 + 0.5*300/1000
	if d := heavy.SupplyC - wantSupply; d > 1e-12 || d < -1e-12 {
		t.Fatalf("supply %.6f, want %.6f", heavy.SupplyC, wantSupply)
	}
	if heavy.ReturnC <= heavy.SupplyC {
		t.Fatal("return must be warmer than supply")
	}
	// Zero approach reproduces the fixed-water-temperature behaviour.
	fixed := SharedLoop{SetpointC: 27, PerBladeFlowKgH: 7, AmbientC: 35}
	st, err := fixed.Boundary([]float64{150, 150})
	if err != nil {
		t.Fatal(err)
	}
	if st.SupplyC != 27 {
		t.Fatalf("zero-approach supply %.3f, want the 27 °C setpoint", st.SupplyC)
	}
}
