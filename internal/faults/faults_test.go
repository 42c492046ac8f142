package faults

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rack"
	"repro/internal/thermosyphon"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("meteor"); err == nil {
		t.Fatal("ParseKind accepted an unknown kind")
	}
}

func TestFaultValidate(t *testing.T) {
	ok := Fault{Kind: PumpDegradation, Severity: 0.5}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid fault rejected: %v", err)
	}
	for _, bad := range []Fault{
		{Kind: PumpDegradation, Severity: -0.1},
		{Kind: PumpDegradation, Severity: 1}, // complete failure is rejected
		{Kind: PumpDegradation, Severity: 1.5},
		{Kind: Kind(99), Severity: 0.5},
		{Kind: PumpDegradation, Severity: 0.5, OnsetHour: -1},
		{Kind: PumpDegradation, Severity: math.NaN()},
		{Kind: PumpDegradation, Severity: math.Inf(1)},
		{Kind: PumpDegradation, Severity: math.Inf(-1)},
		{Kind: CondenserFouling, Severity: 0.3, OnsetHour: math.NaN()},
		{Kind: HTCDrift, Severity: 0.2, OnsetHour: math.Inf(1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	sc, err := Parse("pump:0.4,fouling:0.3:loop0,bladeloss:0.6:loop1:r3b2,htc:0.5@8")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: PumpDegradation, Severity: 0.4},
		{Kind: CondenserFouling, Severity: 0.3, Loop: "loop0"},
		{Kind: BladeCoolingLoss, Severity: 0.6, Loop: "loop1", Blade: "r3b2"},
		{Kind: HTCDrift, Severity: 0.5, OnsetHour: 8},
	}
	if len(sc.Faults) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(sc.Faults), len(want))
	}
	for i, f := range sc.Faults {
		if f != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, f, want[i])
		}
	}
}

func TestParseEmptyIsHealthy(t *testing.T) {
	sc, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Empty() || sc.Name != "healthy" {
		t.Fatalf("Parse(\"\") = %+v, want empty healthy scenario", sc)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"pump",               // no severity
		"pump:high",          // non-numeric severity
		"pump:1.0",           // out of range
		"meteor:0.5",         // unknown kind
		"pump:0.5:a:b:c",     // too many fields
		"pump:0.5@yesterday", // bad onset
		"pump:NaN",           // non-finite severity
		"pump:-Inf",          // non-finite severity
		"fouling:0.3@NaN",    // non-finite onset
		"htc:0.2@Inf",        // non-finite onset
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestApplyDesign(t *testing.T) {
	d := thermosyphon.DefaultDesign()
	sc := Scenario{Faults: []Fault{
		{Kind: PartialDryout, Severity: 0.4},
		{Kind: CondenserFouling, Severity: 0.5},
		{Kind: HTCDrift, Severity: 0.5},
	}}
	got := sc.ApplyDesign(d, "loop0", "r0b0")
	if want := d.FillingRatio * 0.6; math.Abs(got.FillingRatio-want) > 1e-12 {
		t.Errorf("FillingRatio = %g, want %g", got.FillingRatio, want)
	}
	if want := d.CondenserUA * 0.5; math.Abs(got.CondenserUA-want) > 1e-12 {
		t.Errorf("CondenserUA = %g, want %g", got.CondenserUA, want)
	}
	if want := 1 + (d.AreaEnhancement-1)*0.5; math.Abs(got.AreaEnhancement-want) > 1e-12 {
		t.Errorf("AreaEnhancement = %g, want %g", got.AreaEnhancement, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("derated design invalid: %v", err)
	}
}

func TestApplyDesignStaysValidAtExtremeSeverity(t *testing.T) {
	d := thermosyphon.DefaultDesign()
	sc := Scenario{Faults: []Fault{
		{Kind: PartialDryout, Severity: 0.99},
		{Kind: HTCDrift, Severity: 0.99},
	}}
	got := sc.ApplyDesign(d, "loop0", "r0b0")
	if err := got.Validate(); err != nil {
		t.Fatalf("extreme derating left the validator's range: %v", err)
	}
	if got.AreaEnhancement < 1 {
		t.Fatalf("AreaEnhancement %g fell below a plain wall", got.AreaEnhancement)
	}
}

func TestApplyDesignScoping(t *testing.T) {
	d := thermosyphon.DefaultDesign()
	sc := Scenario{Faults: []Fault{
		{Kind: CondenserFouling, Severity: 0.5, Loop: "loop1", Blade: "r1b0"},
	}}
	if got := sc.ApplyDesign(d, "loop0", "r1b0"); got != d {
		t.Error("fault scoped to loop1 touched a loop0 blade")
	}
	if got := sc.ApplyDesign(d, "loop1", "r1b1"); got != d {
		t.Error("fault scoped to r1b0 touched r1b1")
	}
	if got := sc.ApplyDesign(d, "loop1", "r1b0"); got == d {
		t.Error("fault did not touch its own target")
	}
}

func TestApplyLoopAndFlowScale(t *testing.T) {
	l := rack.SharedLoop{PerBladeFlowKgH: 10}
	sc := Scenario{Faults: []Fault{
		{Kind: PumpDegradation, Severity: 0.3},
		{Kind: BladeCoolingLoss, Severity: 0.5, Blade: "r0b0"},
	}}
	if got := sc.ApplyLoop(l, "loop0").PerBladeFlowKgH; math.Abs(got-7) > 1e-12 {
		t.Errorf("ApplyLoop flow = %g, want 7", got)
	}
	if got := sc.FlowScale("loop0", "r0b0"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("FlowScale(r0b0) = %g, want 0.5", got)
	}
	if got := sc.FlowScale("loop0", "r0b1"); got != 1 {
		t.Errorf("FlowScale(r0b1) = %g, want 1 (fault scoped to r0b0)", got)
	}
}

func TestActiveAt(t *testing.T) {
	sc := Scenario{Name: "aging", Faults: []Fault{
		{Kind: PumpDegradation, Severity: 0.3},
		{Kind: CondenserFouling, Severity: 0.5, OnsetHour: 12},
	}}
	early := sc.ActiveAt(6)
	if len(early.Faults) != 1 || early.Faults[0].Kind != PumpDegradation {
		t.Fatalf("ActiveAt(6) = %+v, want only the onset-0 pump fault", early.Faults)
	}
	late := sc.ActiveAt(12)
	if len(late.Faults) != 2 {
		t.Fatalf("ActiveAt(12) = %+v, want both faults", late.Faults)
	}
}

func TestNilScenarioIsHealthy(t *testing.T) {
	var sc *Scenario
	if !sc.Empty() {
		t.Fatal("nil scenario is not Empty")
	}
	d := thermosyphon.DefaultDesign()
	if got := sc.ApplyDesign(d, "loop0", "r0b0"); got != d {
		t.Error("nil scenario changed the design")
	}
	if got := sc.FlowScale("loop0", "r0b0"); got != 1 {
		t.Errorf("nil scenario FlowScale = %g", got)
	}
}

func TestScenarioValidateNamesFault(t *testing.T) {
	sc := Scenario{Faults: []Fault{
		{Kind: PumpDegradation, Severity: 0.5},
		{Kind: CondenserFouling, Severity: 2},
	}}
	err := sc.Validate()
	if err == nil || !strings.Contains(err.Error(), "fault 1") {
		t.Fatalf("Validate = %v, want error naming fault 1", err)
	}
}
