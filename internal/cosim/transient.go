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
// The simulation is workspace-backed: the temperature field, the operator
// diagonal, the RHS, the CG scratch, the boundary, and the thermosyphon
// state all live in per-simulation buffers, so a step performs no heap
// allocations after the first. Field() and Syphon() alias those buffers
// and are overwritten by the next Step.
type TransientSim struct {
	sys    *System
	ws     *thermal.Workspace
	design *thermosyphon.Design // the session's design (Session.Design)
	op     thermosyphon.Operating
	field  *thermal.Field
	bc     thermal.TopBoundary
	syph   *thermosyphon.State
	time   float64

	pCells     []float64
	qBuf       []float64
	layerPower [][]float64 // dense die-layer injection table (index 0)
}

// Transient starts a transient simulation from a uniform initial
// temperature at the given cooling operating point, on the session's
// workspace and with the session's thermosyphon design (WithDesign): the
// sim uses the workspace's second field buffer, so steady solves and a
// transient run can share one session without clobbering each other. A
// session hosts at most one transient sim — its field, boundary, and
// scratch buffers live in the shared workspace, so a second sim would
// silently corrupt the first; start it on its own session instead.
func (ses *Session) Transient(op thermosyphon.Operating, initialC float64) (*TransientSim, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	if ses.transient {
		return nil, fmt.Errorf("cosim: session already hosts a transient simulation; use a new session")
	}
	sys := ses.sys
	ts := &TransientSim{
		sys:        sys,
		ws:         ses.ws,
		design:     ses.Design(),
		op:         op,
		field:      ses.ws.FieldB(),
		layerPower: make([][]float64, 1),
	}
	ts.field.T.Fill(initialC)
	// Bootstrap the boundary with a near-idle thermosyphon state.
	syph, err := ts.design.Evaporate(sys.Thermal.Grid(), make([]float64, sys.Thermal.Cells()), op)
	if err != nil {
		return nil, err
	}
	ts.syph = syph
	ts.bc = ses.ws.Boundary()
	copy(ts.bc.H, syph.H)
	copy(ts.bc.TFluid, syph.TFluid)
	ses.transient = true
	return ts, nil
}

// Time returns the elapsed simulated seconds.
func (ts *TransientSim) Time() float64 { return ts.time }

// Field returns the current temperature field. The field is updated in
// place by Step; Clone it to keep a snapshot.
func (ts *TransientSim) Field() *thermal.Field { return ts.field }

// Syphon returns the thermosyphon state of the last step, valid until the
// next Step.
func (ts *TransientSim) Syphon() *thermosyphon.State { return ts.syph }

// Operating returns the cooling operating point the sim was started at.
func (ts *TransientSim) Operating() thermosyphon.Operating { return ts.op }

// Step advances the simulation by dt seconds under the given per-block
// power map: the thermosyphon is re-solved against the current top heat
// flux, then the RC network takes one backward-Euler step.
func (ts *TransientSim) Step(dt float64, blockPower map[string]float64) error {
	if dt <= 0 {
		return fmt.Errorf("cosim: non-positive step %g", dt)
	}
	pCells, err := ts.sys.coverage.PowerMapInto(ts.pCells, blockPower)
	if err != nil {
		return err
	}
	ts.pCells = pCells
	// Quasi-static thermosyphon update from the flux the current field
	// pushes through the top boundary (floor at the injected power so a
	// cold start still circulates).
	ts.qBuf = ts.field.TopHeatPerCellInto(ts.qBuf, ts.bc)
	q := ts.qBuf
	var qTot float64
	for _, w := range q {
		qTot += w
	}
	if qTot < 1 {
		q = pCells
	}
	syph, err := ts.design.EvaporateInto(ts.syph, ts.sys.Thermal.Grid(), q, ts.op)
	if err != nil {
		return err
	}
	ts.syph = syph
	// Damp the boundary update: the raw quasi-static coupling produces a
	// small limit cycle near steady state (flux → quality → HTC → flux);
	// blending successive boundaries removes it without changing the
	// converged point.
	for i := range ts.syph.H {
		ts.bc.H[i] = 0.5*ts.bc.H[i] + 0.5*ts.syph.H[i]
		ts.bc.TFluid[i] = 0.5*ts.bc.TFluid[i] + 0.5*ts.syph.TFluid[i]
	}
	// The die-layer injection rides in a persistent dense table: no
	// per-step map allocation or lookup on the step hot path.
	ts.layerPower[0] = pCells
	if err := ts.ws.StepTransientLayersInto(ts.field, ts.field, dt, ts.layerPower, ts.bc); err != nil {
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
	st := &TransientState{TimeS: ts.time}
	st.FieldT = append([]float64(nil), ts.field.T...)
	st.BCH = append([]float64(nil), ts.bc.H...)
	st.BCTFluid = append([]float64(nil), ts.bc.TFluid...)
	return st
}

// ImportState overwrites the sim's dynamic state with an exported one.
// The sim must have been created on a system with the same grid and
// layer stack (the slice lengths are validated); the operating point and
// solver configuration come from the sim's own construction, not the
// state — they are configuration, not dynamics. After a successful
// import the next Step continues bit-identically to a sim that never
// stopped.
func (ts *TransientSim) ImportState(st *TransientState) error {
	if len(st.FieldT) != len(ts.field.T) {
		return fmt.Errorf("cosim: state field has %d cells, sim expects %d (grid or stack mismatch)",
			len(st.FieldT), len(ts.field.T))
	}
	if len(st.BCH) != len(ts.bc.H) || len(st.BCTFluid) != len(ts.bc.TFluid) {
		return fmt.Errorf("cosim: state boundary has %d/%d cells, sim expects %d",
			len(st.BCH), len(st.BCTFluid), len(ts.bc.H))
	}
	for i, v := range st.FieldT {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cosim: state field cell %d is %g", i, v)
		}
	}
	// A negative heat-transfer coefficient would be a negative conductance
	// in the step operator.
	for i, h := range st.BCH {
		if tf := st.BCTFluid[i]; !(h >= 0) || math.IsInf(h, 1) || math.IsNaN(tf) || math.IsInf(tf, 0) {
			return fmt.Errorf("cosim: state boundary cell %d has h %g W/m²·K, fluid %g °C", i, h, tf)
		}
	}
	if st.TimeS < 0 {
		return fmt.Errorf("cosim: negative state time %g s", st.TimeS)
	}
	copy(ts.field.T, st.FieldT)
	copy(ts.bc.H, st.BCH)
	copy(ts.bc.TFluid, st.BCTFluid)
	ts.time = st.TimeS
	return nil
}

// DieMax returns the current die hot-spot temperature.
func (ts *TransientSim) DieMax() (float64, error) {
	temps, err := ts.field.LayerByName(thermal.LayerDie)
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
	g := ts.sys.Thermal.Grid()
	l := ts.sys.Thermal.Stack.LayerIndex(thermal.LayerSpreader)
	return ts.field.SampleAt(l, g.DX*float64(g.NX)/2, g.DY*float64(g.NY)/2)
}
