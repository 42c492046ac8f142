package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// The replays below run a workload's inputs through the program's layers
// in this process. The correctness gates, run once the daemon has
// stopped, compare their answers bit for bit with the daemon's; a traced
// run times each call from the outside. Nothing inside the program is
// instrumented.

// layerTimes accumulates the per-call samples of the cosim-level replays.
type layerTimes struct {
	build      []float64 // ms per system + session build
	call       []float64 // ms per cosim call (a steady solve or a step chunk)
	evap       []float64 // µs per evaporator solve on the call's final flux
	nsPerApply []float64 // ns per operator application of an isolated linear solve
	passes     []int     // coupling passes (evaporate + linear solve) per call
	applies    []int     // operator applications per call
	linsolves  int
	iters      int
	escalate   int
	steps      int
}

func (l *layerTimes) add(call, evap time.Duration, passes int, st thermal.SolveStats, lin time.Duration, linApplies int) {
	l.call = append(l.call, ms(call))
	l.evap = append(l.evap, float64(evap)/float64(time.Microsecond))
	l.passes = append(l.passes, passes)
	l.applies = append(l.applies, st.Applies)
	l.linsolves += st.Solves
	l.iters += st.Iterations
	l.escalate += st.Escalations
	l.nsPerApply = append(l.nsPerApply, float64(lin)/float64(max(linApplies, 1)))
}

func (l *layerTimes) calls() int { return len(l.call) }

func (l *layerTimes) totalApplies() int {
	n := 0
	for _, a := range l.applies {
		n += a
	}
	return n
}

func (l *layerTimes) meanPasses() float64 {
	n := 0
	for _, p := range l.passes {
		n += p
	}
	return float64(n) / float64(len(l.passes))
}

// report sets the cosim, thermosyphon and thermal per-layer metrics;
// callNote says what a cosim call was.
func (l *layerTimes) report(r *result, callNote string) {
	calls := float64(l.calls())
	callMS := median(l.call)
	r.set("experiments.build_ms", median(l.build), "ms", fmt.Sprintf("system + session, n=%d", len(l.build)))
	r.set("cosim.call_ms", callMS, "ms", fmt.Sprintf("%s, n=%d", callNote, l.calls()))
	r.set("cosim.outer_iters", l.meanPasses(), "count", "coupling passes per call")
	evapUS := median(l.evap)
	r.set("thermosyphon.evaporate_us", evapUS, "us", "per evaporator solve")
	r.set("thermosyphon.share", l.meanPasses()*evapUS/1000/callMS, "share", "computed: passes × evaporate / call")
	linPerCall := float64(l.linsolves) / calls
	r.set("thermal.linsolves_per_call", linPerCall, "count", "")
	r.set("thermal.iters_per_linsolve", float64(l.iters)/float64(l.linsolves), "count", "")
	appliesPerLin := float64(l.totalApplies()) / float64(l.linsolves)
	r.set("thermal.applies_per_linsolve", appliesPerLin, "count", "")
	nsApply := median(l.nsPerApply)
	r.set("thermal.ns_per_apply", nsApply, "ns", "isolated linear solve time / its applies")
	r.set("thermal.linsolve_ms", appliesPerLin*nsApply/1e6, "ms", "computed: applies per linsolve × ns per apply")
	r.set("thermal.escalations", float64(l.escalate), "count", "must be 0")
	if l.steps > 0 {
		r.set("thermal.iters_per_step", float64(l.iters)/float64(l.steps), "count", "")
	}
}

// sessionOptions mirrors how the daemon configures a leased session.
func sessionOptions(info daemonInfo) []cosim.SessionOption {
	opts := []cosim.SessionOption{cosim.WithSolver(info.Solver), cosim.CarryWarmStart(false)}
	if info.Threads > 1 {
		opts = append(opts, cosim.WithThreads(info.Threads))
	}
	return opts
}

// solveKit is one system with a session and the buffers a replay needs
// to time the evaporator and one isolated linear solve on the session's
// state.
type solveKit struct {
	sys  *cosim.System
	ses  *cosim.Session
	ws   *thermal.Workspace
	evap *thermosyphon.State
	q    []float64
}

// newSolveKit builds the system and session the daemon would for a
// proposal at res, recording the build time in lt when it is not nil.
func newSolveKit(info daemonInfo, res experiments.Resolution, lt *layerTimes) (*solveKit, error) {
	t0 := time.Now()
	sys, err := experiments.NewSystem(thermosyphon.DefaultDesign(), res)
	if err != nil {
		return nil, err
	}
	k := &solveKit{sys: sys, ses: sys.NewSession(sessionOptions(info)...)}
	if lt != nil {
		lt.build = append(lt.build, ms(time.Since(t0)))
	}
	k.ws = sys.Thermal.NewWorkspace()
	k.ws.SetSolver(info.Solver)
	if info.Threads > 1 {
		k.ws.SetThreads(info.Threads)
	}
	return k, nil
}

func (k *solveKit) close() {
	k.ses.Close()
	k.ws.Close()
}

// timeEvaporate times one evaporator solve on the heat flux field pushes
// through bc.
func (k *solveKit) timeEvaporate(field *thermal.Field, bc thermal.TopBoundary, op thermosyphon.Operating) (time.Duration, error) {
	k.q = field.TopHeatPerCellInto(k.q, bc)
	t0 := time.Now()
	st, err := k.ses.Design().EvaporateInto(k.evap, k.sys.Thermal.Grid(), k.q, op)
	d := time.Since(t0)
	k.evap = st
	return d, err
}

// timeLinsolve times one linear solve on the kit's own workspace and
// returns it with its operator applications. The solve runs twice and
// the second is timed: the solves it prices run on a workspace whose
// buffers are already in cache.
func (k *solveKit) timeLinsolve(solve func() error) (time.Duration, int, error) {
	if err := solve(); err != nil {
		return 0, 0, err
	}
	before := k.ws.Stats()
	t0 := time.Now()
	err := solve()
	return time.Since(t0), k.ws.Stats().Applies - before.Applies, err
}

// packageState is the power-model state of a full-load proposal, as the
// daemon normalizes one (8 cores, one thread each, FMax).
func packageState(benchmark, idle string) (power.PackageState, error) {
	b, err := workload.ByName(benchmark)
	if err != nil {
		return power.PackageState{}, err
	}
	var cs power.CState
	switch idle {
	case "", "POLL":
		cs = power.POLL
	case "C6":
		cs = power.C6
	default:
		return power.PackageState{}, fmt.Errorf("unsupported idle state %q", idle)
	}
	m := experiments.FullLoadMapping(workload.Config{Cores: 8, Threads: 8, Freq: power.FMax}, cs)
	return core.PackageState(b, m), nil
}

// steadyReplay replays steady proposals as fresh-seeded
// Session.SolveSteady calls, one session per lease key, the way the
// daemon's leases solve them.
type steadyReplay struct {
	info daemonInfo
	kits map[string]*solveKit
	lt   layerTimes
}

func newSteadyReplay(info daemonInfo) *steadyReplay {
	return &steadyReplay{info: info, kits: map[string]*solveKit{}}
}

func (s *steadyReplay) close() {
	for _, k := range s.kits {
		k.close()
	}
}

// solve returns the proposal's die hot spot (°C).
func (s *steadyReplay) solve(ctx context.Context, req serve.SteadyRequest) (float64, error) {
	key := req.Benchmark + "/" + req.Idle
	k, ok := s.kits[key]
	if !ok {
		var err error
		if k, err = newSolveKit(s.info, s.info.Res, &s.lt); err != nil {
			return 0, err
		}
		s.kits[key] = k
	}
	st, err := packageState(req.Benchmark, req.Idle)
	if err != nil {
		return 0, err
	}
	op := thermosyphon.Operating{WaterInC: req.WaterC, WaterFlowKgH: req.WaterFlowKgH}
	before := k.ses.SolverStats()
	t0 := time.Now()
	res, err := k.ses.SolveSteady(ctx, st, op)
	call := time.Since(t0)
	if err != nil {
		return 0, err
	}
	delta := statsDelta(k.ses.SolverStats(), before)
	die, err := k.sys.DieStats(res)
	if err != nil {
		return 0, err
	}
	evap, err := k.timeEvaporate(res.Field, res.BC, op)
	if err != nil {
		return 0, err
	}
	// A cold linear solve of the converged system on a separate workspace:
	// its time per operator application prices the solve's applies.
	pc, err := k.sys.PowerCells(res.BlockPower)
	if err != nil {
		return 0, err
	}
	lin, applies, err := k.timeLinsolve(func() error {
		return k.ws.SteadySolveLayersInto(k.ws.FieldA(), nil, [][]float64{pc}, res.BC)
	})
	if err != nil {
		return 0, err
	}
	s.lt.add(call, evap, res.Iterations, delta, lin, applies)
	return die.MaxC, nil
}

func statsDelta(a, b thermal.SolveStats) thermal.SolveStats {
	return thermal.SolveStats{Solves: a.Solves - b.Solves, Iterations: a.Iterations - b.Iterations,
		Applies: a.Applies - b.Applies, Escalations: a.Escalations - b.Escalations}
}

// transientReplay replays one blade's step chunks on a TransientSim set up
// the way the daemon registers a blade.
type transientReplay struct {
	kit    *solveKit
	sim    *cosim.TransientSim
	base   map[string]float64
	scaled map[string]float64
	lt     *layerTimes // nil: replay for correctness only, untimed
}

func newTransientReplay(info daemonInfo, benchmark string, lt *layerTimes) (*transientReplay, error) {
	k, err := newSolveKit(info, experiments.Medium, lt)
	if err != nil {
		return nil, err
	}
	st, err := packageState(benchmark, "")
	if err != nil {
		k.close()
		return nil, err
	}
	op := thermosyphon.DefaultOperating()
	sim, err := k.ses.Transient(op, op.WaterInC)
	if err != nil {
		k.close()
		return nil, err
	}
	base := k.sys.Power.BlockPowers(st)
	return &transientReplay{kit: k, sim: sim, base: base, scaled: make(map[string]float64, len(base)), lt: lt}, nil
}

func (t *transientReplay) close() { t.kit.close() }

// chunk applies one step chunk, as the daemon's step handler does.
func (t *transientReplay) chunk(req serve.TransientStepRequest) error {
	before := t.kit.ses.SolverStats()
	t0 := time.Now()
	for _, st := range req.Steps {
		for k, v := range t.base {
			t.scaled[k] = v * *st.Load
		}
		if err := t.sim.Step(req.DtS, t.scaled); err != nil {
			return err
		}
	}
	call := time.Since(t0)
	if t.lt == nil {
		return nil
	}
	delta := statsDelta(t.kit.ses.SolverStats(), before)
	t.lt.steps += len(req.Steps)
	// The sim's boundary is private; its exported state carries it.
	state := t.sim.ExportState()
	bc := thermal.TopBoundary{H: state.BCH, TFluid: state.BCTFluid}
	evap, err := t.kit.timeEvaporate(t.sim.Field(), bc, t.sim.Operating())
	if err != nil {
		return err
	}
	pc, err := t.kit.sys.PowerCells(t.scaled)
	if err != nil {
		return err
	}
	// The sim's next step solved on a separate workspace prices the
	// chunk's applies.
	lin, applies, err := t.kit.timeLinsolve(func() error {
		return t.kit.ws.StepTransientLayersInto(t.kit.ws.FieldA(), t.sim.Field(), req.DtS, [][]float64{pc}, bc)
	})
	if err != nil {
		return err
	}
	t.lt.add(call, evap, len(req.Steps), delta, lin, applies)
	return nil
}

// inproc is a fresh in-process serve.Server configured like the daemon;
// call times one request through its handler.
type inproc struct {
	srv *serve.Server
	h   http.Handler
}

func newInproc(info daemonInfo) (*inproc, error) {
	srv, err := serve.New(serve.Config{Resolution: info.Res, Solver: info.Solver,
		Workers: info.Workers, Threads: info.Threads})
	if err != nil {
		return nil, err
	}
	return &inproc{srv: srv, h: srv.Handler()}, nil
}

func (p *inproc) close() { p.srv.Close() }

func (p *inproc) call(method, path string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	p.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(t0)
}
