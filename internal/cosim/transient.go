package cosim

import (
	"fmt"
	"math"

	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// TransientSim advances a blade through time with the thermosyphon
// boundary re-coupled every step: the evaporator state is quasi-static
// with respect to the chip's thermal time constants (the refrigerant loop
// settles in well under the RC network's seconds-scale transients).
//
// A sim is a view over its session: the temperature field is the
// workspace's field buffer, and the damped boundary, the thermosyphon
// state, the rasterized power map and the flux scratch are the session's
// own buffers, so a step performs no heap allocations after the first.
// Like every session Result, a sim is valid until its session's next
// solve or next Transient call. A caller that interleaves other work on
// the session exports the sim's state (ExportState) and later resumes it
// on any session of an equivalent system (Resume); the resumed sim steps
// bit-identically to one that never stopped. Field() and Syphon() alias
// the session's buffers and are overwritten by the next Step.
type TransientSim struct {
	ses  *Session
	op   thermosyphon.Operating
	time float64
}

// Transient starts a transient simulation from a uniform initial
// temperature at the given cooling operating point, on the session's
// buffers and with the session's thermosyphon design (WithDesign). The
// sim takes the workspace's field buffer, so opening it drops the
// session's warm-start carry, and it ends any sim the session was running.
func (ses *Session) Transient(op thermosyphon.Operating, initialC float64) (*TransientSim, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	// Bootstrap the boundary with a near-idle thermosyphon state.
	m := ses.sys.Thermal
	syph, err := ses.Design().EvaporateInto(ses.syph, m.Grid(), make([]float64, m.Cells()), op)
	if err != nil {
		return nil, err
	}
	ses.syph = syph
	ses.warm = false
	ses.ws.FieldA().T.Fill(initialC)
	bc := ses.ws.Boundary()
	copy(bc.H, syph.H)
	copy(bc.TFluid, syph.TFluid)
	return &TransientSim{ses: ses, op: op}, nil
}

// Resume opens a TransientSim from an exported state at the given
// cooling operating point. The session's system must have the same grid
// and layer stack as the exporter's (the slice lengths are validated);
// the operating point and the solver configuration come from the call and
// the session, not the state — they are configuration, not dynamics. The
// next Step continues bit-identically to a sim that never stopped. A
// refused state leaves the session untouched. Like Transient, the sim
// takes the workspace's field buffer and drops the session's warm-start
// carry; its Syphon is meaningful only after the first Step.
func (ses *Session) Resume(op thermosyphon.Operating, st *TransientState) (*TransientSim, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	field, bc := ses.ws.FieldA(), ses.ws.Boundary()
	if len(st.FieldT) != len(field.T) {
		return nil, fmt.Errorf("cosim: state field has %d cells, sim expects %d (grid or stack mismatch)",
			len(st.FieldT), len(field.T))
	}
	if len(st.BCH) != len(bc.H) || len(st.BCTFluid) != len(bc.TFluid) {
		return nil, fmt.Errorf("cosim: state boundary has %d/%d cells, sim expects %d",
			len(st.BCH), len(st.BCTFluid), len(bc.H))
	}
	for i, v := range st.FieldT {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("cosim: state field cell %d is %g", i, v)
		}
	}
	// A negative heat-transfer coefficient would be a negative conductance
	// in the step operator.
	for i, h := range st.BCH {
		if tf := st.BCTFluid[i]; !(h >= 0) || math.IsInf(h, 1) || math.IsNaN(tf) || math.IsInf(tf, 0) {
			return nil, fmt.Errorf("cosim: state boundary cell %d has h %g W/m²·K, fluid %g °C", i, h, tf)
		}
	}
	if st.TimeS < 0 {
		return nil, fmt.Errorf("cosim: negative state time %g s", st.TimeS)
	}
	ses.warm = false
	copy(field.T, st.FieldT)
	copy(bc.H, st.BCH)
	copy(bc.TFluid, st.BCTFluid)
	return &TransientSim{ses: ses, op: op, time: st.TimeS}, nil
}

// Time returns the elapsed simulated seconds.
func (ts *TransientSim) Time() float64 { return ts.time }

// Field returns the current temperature field. The field is updated in
// place by Step; Clone it to keep a snapshot.
func (ts *TransientSim) Field() *thermal.Field { return ts.ses.ws.FieldA() }

// Syphon returns the thermosyphon state of the last step, valid until the
// next Step.
func (ts *TransientSim) Syphon() *thermosyphon.State { return ts.ses.syph }

// Operating returns the cooling operating point the sim was started at.
func (ts *TransientSim) Operating() thermosyphon.Operating { return ts.op }

// Step advances the simulation by dt seconds under the given per-block
// power map: the thermosyphon is re-solved against the current top heat
// flux, then the RC network takes one backward-Euler step.
func (ts *TransientSim) Step(dt float64, blockPower map[string]float64) error {
	if dt <= 0 {
		return fmt.Errorf("cosim: non-positive step %g", dt)
	}
	ses := ts.ses
	// The die-layer injection rides in the session's dense table: no
	// per-step map allocation or lookup on the step hot path.
	if _, err := ses.rasterize(blockPower); err != nil {
		return err
	}
	field, bc := ses.ws.FieldA(), ses.ws.Boundary()
	// Quasi-static thermosyphon update from the flux the current field
	// pushes through the top boundary (floor at the injected power so a
	// cold start still circulates).
	ses.qNew = field.TopHeatPerCellInto(ses.qNew, bc)
	q := ses.qNew
	var qTot float64
	for _, w := range q {
		qTot += w
	}
	if qTot < 1 {
		q = ses.pCells
	}
	syph, err := ses.Design().EvaporateInto(ses.syph, ses.sys.Thermal.Grid(), q, ts.op)
	if err != nil {
		return err
	}
	ses.syph = syph
	// Damp the boundary update: the raw quasi-static coupling produces a
	// small limit cycle near steady state (flux → quality → HTC → flux);
	// blending successive boundaries removes it without changing the
	// converged point.
	for i := range syph.H {
		bc.H[i] = 0.5*bc.H[i] + 0.5*syph.H[i]
		bc.TFluid[i] = 0.5*bc.TFluid[i] + 0.5*syph.TFluid[i]
	}
	if err := ses.ws.StepTransientLayersInto(field, field, dt, ses.layerPower, bc); err != nil {
		return err
	}
	ts.time += dt
	return nil
}

// TransientState is the complete dynamic state of a TransientSim: the
// temperature field, the damped thermosyphon boundary and the simulated
// time. It is everything Step reads that persists across steps — the
// thermosyphon state, the flux buffer and the rasterized power map are
// recomputed from scratch inside every Step, so they are not part of the
// state. A sim restored from an exported state therefore continues
// exactly where the exporter stopped: restore-then-step is bit-identical
// to an uninterrupted run on the same system, solver, and thread count
// (the checkpoint/restore contract the thermservd crash-recovery path
// leans on, asserted by TestTransientExportImportExact).
//
// All fields are exported and JSON-tagged so the state serializes with
// encoding/json; float64 values round-trip exactly (Go marshals the
// shortest representation that parses back to the same bits).
type TransientState struct {
	// TimeS is the elapsed simulated time (s).
	TimeS float64 `json:"time_s"`
	// FieldT is the full temperature field (°C), layer-major.
	FieldT []float64 `json:"field_t"`
	// BCH / BCTFluid are the damped top-boundary HTC (W/m²·K) and fluid
	// temperature (°C) per cell — the blended boundary Step carries.
	BCH      []float64 `json:"bc_h"`
	BCTFluid []float64 `json:"bc_t_fluid"`
}

// ExportState deep-copies the sim's dynamic state for serialization. The
// sim remains usable; the returned state does not alias its buffers.
func (ts *TransientSim) ExportState() *TransientState {
	bc := ts.ses.ws.Boundary()
	return &TransientState{
		TimeS:    ts.time,
		FieldT:   append([]float64(nil), ts.Field().T...),
		BCH:      append([]float64(nil), bc.H...),
		BCTFluid: append([]float64(nil), bc.TFluid...),
	}
}

// DieMax returns the current die hot-spot temperature.
func (ts *TransientSim) DieMax() (float64, error) {
	temps, err := ts.Field().LayerByName(thermal.LayerDie)
	if err != nil {
		return 0, err
	}
	max := temps[0]
	for _, t := range temps {
		if t > max {
			max = t
		}
	}
	return max, nil
}

// TCase returns the current case temperature (spreader center).
func (ts *TransientSim) TCase() float64 {
	m := ts.ses.sys.Thermal
	g := m.Grid()
	l := m.Stack.LayerIndex(thermal.LayerSpreader)
	return ts.Field().SampleAt(l, g.DX*float64(g.NX)/2, g.DY*float64(g.NY)/2)
}
