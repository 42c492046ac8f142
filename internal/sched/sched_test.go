package sched

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/power"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

func coarseSystem(t *testing.T) *cosim.System {
	t.Helper()
	cfg := cosim.DefaultConfig()
	cfg.Stack.NX, cfg.Stack.NY = 19, 15
	s, err := cosim.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegulateNoEmergencyAtDesignPoint(t *testing.T) {
	// The design point was sized for the worst case, so normal operation
	// must not trigger any action.
	sys := coarseSystem(t)
	c := NewController(sys)
	b, _ := workload.ByName("ferret")
	m, err := core.Plan(b, workload.QoS2x)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Regulate(nil, b, m, workload.QoS2x)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Actions) != 0 || out.Emergency {
		t.Fatalf("unexpected actions %v (emergency=%v) at design point", out.Actions, out.Emergency)
	}
	if out.TCase >= TCaseMax {
		t.Fatalf("TCase %.1f above limit at design point", out.TCase)
	}
	if out.Result == nil {
		t.Fatal("missing result")
	}
}

func TestRegulateOpensValveUnderStress(t *testing.T) {
	// Force an artificial emergency with a tight TCase limit: the first
	// remedy must be flow escalation, not DVFS.
	sys := coarseSystem(t)
	c := NewController(sys)
	b, _ := workload.ByName("x264")
	m, err := core.Plan(b, workload.QoS1x)
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.Regulate(nil, b, m, workload.QoS1x)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewController(sys)
	c2.TCaseLimit = base.TCase - 1 // just below the unregulated TCase
	out, err := c2.Regulate(nil, b, m, workload.QoS1x)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Actions) == 0 {
		t.Fatal("expected regulation actions")
	}
	if out.Actions[0].Kind != "flow" {
		t.Fatalf("first action should open the valve, got %v", out.Actions[0])
	}
	if !out.Emergency && out.TCase >= c2.TCaseLimit {
		t.Fatalf("controller reported success with TCase %.1f above limit %.1f", out.TCase, c2.TCaseLimit)
	}
}

func TestRegulateDVFSAfterValveExhausted(t *testing.T) {
	sys := coarseSystem(t)
	c := NewController(sys)
	c.FlowMaxKgH = c.Op.WaterFlowKgH // valve already maxed
	b, _ := workload.ByName("x264")
	m, err := core.Plan(b, workload.QoS3x) // plenty of QoS headroom for DVFS
	if err != nil {
		t.Fatal(err)
	}
	m.Config.Freq = power.FMax // force headroom below
	base, err := c.Regulate(nil, b, m, workload.QoS3x)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewController(sys)
	c2.FlowMaxKgH = c2.Op.WaterFlowKgH
	c2.TCaseLimit = base.TCase - 0.5
	out, err := c2.Regulate(nil, b, m, workload.QoS3x)
	if err != nil {
		t.Fatal(err)
	}
	var sawDVFS bool
	for _, a := range out.Actions {
		if a.Kind == "flow" {
			t.Fatal("valve was exhausted; no flow actions allowed")
		}
		if a.Kind == "dvfs" {
			sawDVFS = true
		}
	}
	if !sawDVFS && !out.Emergency {
		t.Fatal("expected DVFS action or emergency")
	}
}

func TestRegulateEmergencyWhenQoSBlocksDVFS(t *testing.T) {
	sys := coarseSystem(t)
	c := NewController(sys)
	c.FlowMaxKgH = c.Op.WaterFlowKgH
	c.TCaseLimit = 1 // impossible limit
	b, _ := workload.ByName("swaptions")
	m, err := core.Plan(b, workload.QoS1x) // no QoS headroom
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Regulate(nil, b, m, workload.QoS1x)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Emergency {
		t.Fatal("impossible limit must end in emergency")
	}
}

func TestRegulateKeepsQoS(t *testing.T) {
	sys := coarseSystem(t)
	c := NewController(sys)
	c.TCaseLimit = 40 // stress: forces actions
	b, _ := workload.ByName("facesim")
	m, err := core.Plan(b, workload.QoS2x)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Regulate(nil, b, m, workload.QoS2x)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever happened, the final configuration must satisfy the QoS.
	if !workload.QoS2x.Satisfied(b, out.Mapping.Config) {
		t.Fatalf("controller broke QoS: %v", out.Mapping.Config)
	}
	_ = thermosyphon.DefaultOperating()
}
