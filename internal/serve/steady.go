package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/chiller"
	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/sched"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// The service models one blade; fault scopes resolve against these names,
// matching the fleet naming of cmd/rackplan (loop0, r0b0), so the same
// -fault spec strings work against both.
const (
	serveLoopName  = "loop0"
	serveBladeName = "r0b0"
)

// ambientC is the chiller-side ambient the cooling budget is costed
// against, the same 35 °C cmd/rackplan uses.
const ambientC = 35

// SteadyRequest is one steady-state what-if proposal. A proposal either
// names a benchmark and a core mapping (the power model derives per-block
// powers) or carries explicit per-block powers. Omitted fields take the
// documented defaults; the normalized form — defaults filled, active
// cores sorted — is echoed back as "proposal" in the response and is the
// response-cache key, so two spellings of the same proposal hit the same
// cache line.
type SteadyRequest struct {
	// Benchmark is a PARSEC workload name (see workload.All). Mutually
	// exclusive with BlockPowerW.
	Benchmark string `json:"benchmark,omitempty"`
	// Cores/Threads/FreqGHz are the execution configuration (defaults:
	// 8 cores, one thread per core, 3.2 GHz).
	Cores   int     `json:"cores,omitempty"`
	Threads int     `json:"threads,omitempty"`
	FreqGHz float64 `json:"freq_ghz,omitempty"`
	// ActiveCores lists the physical cores loaded (default 0..Cores-1).
	ActiveCores []int `json:"active_cores,omitempty"`
	// Idle is the C-state of inactive cores: POLL|C1|C1E|C3|C6 (default
	// POLL).
	Idle string `json:"idle,omitempty"`
	// BlockPowerW is an explicit per-block power map (W) over the
	// Broadwell-EP floorplan, for proposals outside the workload model.
	BlockPowerW map[string]float64 `json:"block_power_w,omitempty"`
	// WaterC / WaterFlowKgH are the condenser coolant operating point
	// (defaults: the paper's 30 °C at 7 kg/h).
	WaterC       float64 `json:"water_c,omitempty"`
	WaterFlowKgH float64 `json:"water_flow_kgh,omitempty"`
	// Fault is a cooling-fault scenario in the -fault flag grammar, e.g.
	// "pump:0.5" (see internal/faults). Scoped terms resolve against
	// loop0 / r0b0.
	Fault string `json:"fault,omitempty"`
	// Solver / Resolution override the server defaults: cg|mgpcg and
	// coarse|medium|full.
	Solver     string `json:"solver,omitempty"`
	Resolution string `json:"resolution,omitempty"`
}

// BlockTempJSON is one per-block die temperature of a steady response.
type BlockTempJSON struct {
	Name  string  `json:"name"`
	MeanC float64 `json:"mean_c"`
	MaxC  float64 `json:"max_c"`
}

// SteadyCooling is the cooling-budget section of a steady response.
type SteadyCooling struct {
	WaterOutC     float64 `json:"water_out_c"`
	DeltaTC       float64 `json:"delta_t_c"`
	Eq1PowerW     float64 `json:"eq1_power_w"`
	ChillerPowerW float64 `json:"chiller_power_w"`
	PUE           float64 `json:"pue"`
}

// SteadyResponse is the converged answer to a steady proposal. Field
// order is fixed and every value is produced deterministically, so
// identical proposals marshal to byte-identical bodies.
type SteadyResponse struct {
	Proposal    SteadyRequest   `json:"proposal"`
	DieMaxC     float64         `json:"die_max_c"`
	DieMeanC    float64         `json:"die_mean_c"`
	DieGradCPmm float64         `json:"die_grad_c_per_mm"`
	PkgMaxC     float64         `json:"pkg_max_c"`
	PkgMeanC    float64         `json:"pkg_mean_c"`
	TCaseC      float64         `json:"tcase_c"`
	Blocks      []BlockTempJSON `json:"blocks"`
	TotalPowerW float64         `json:"total_power_w"`
	Iterations  int             `json:"iterations"`
	DryoutCells int             `json:"dryout_cells"`
	Feasible    bool            `json:"feasible"`
	Cooling     SteadyCooling   `json:"cooling"`
	MaxQuality  float64         `json:"max_quality"`
	FlowKgHUsed float64         `json:"flow_kgh_used"`
}

// steadyProposal is a validated, normalized proposal ready to solve.
type steadyProposal struct {
	req      SteadyRequest // canonical form
	key      string        // canonical JSON — the memo key
	class    classKey
	st       power.PackageState
	bp       map[string]float64
	op       thermosyphon.Operating
	scenario faults.Scenario
}

// classKey is a proposal class: its session pool plus its mapping (the
// benchmark configuration or the explicit block powers). Circuit
// breakers trip per class.
type classKey struct {
	poolKey
	mapping string
}

// parseIdle resolves an idle C-state name.
func parseIdle(s string) (power.CState, error) {
	for _, c := range []power.CState{power.POLL, power.C1, power.C1E, power.C3, power.C6} {
		if s == c.String() {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown idle state %q (want POLL|C1|C1E|C3|C6)", s)
}

// Proposal limits far above any server and far below the values whose
// first linear solve overflows into NaN (a 1e20 kg/h coolant flow, a
// 1e300 W block): the default flow is 7 kg/h, and a Broadwell-EP package
// dissipates about 145 W in all.
const (
	maxWaterFlowKgH = 1e4
	maxBlockPowerW  = 1e4
)

// normalizeSteady validates a request, fills defaults, and derives the
// canonical cache keys and solver inputs.
func (s *Server) normalizeSteady(req SteadyRequest) (*steadyProposal, error) {
	p := &steadyProposal{}
	if req.Benchmark != "" && len(req.BlockPowerW) > 0 {
		return nil, errors.New("benchmark and block_power_w are mutually exclusive")
	}
	if req.Benchmark == "" && len(req.BlockPowerW) == 0 {
		return nil, errors.New("a proposal needs a benchmark or an explicit block_power_w map")
	}

	if req.Resolution == "" {
		req.Resolution = s.cfg.Resolution.String()
	}
	res, err := experiments.ParseResolution(req.Resolution)
	if err != nil {
		return nil, err
	}
	if req.Solver == "" {
		req.Solver = s.cfg.Solver.String()
	}
	solver, err := thermal.ParseSolver(req.Solver)
	if err != nil {
		return nil, err
	}

	if req.WaterC == 0 && req.WaterFlowKgH == 0 {
		def := thermosyphon.DefaultOperating()
		req.WaterC, req.WaterFlowKgH = def.WaterInC, def.WaterFlowKgH
	}
	p.op = thermosyphon.Operating{WaterInC: req.WaterC, WaterFlowKgH: req.WaterFlowKgH}
	if err := p.op.Validate(); err != nil {
		return nil, err
	}
	if req.WaterFlowKgH > maxWaterFlowKgH {
		return nil, fmt.Errorf("water flow %g kg/h over the %g kg/h limit", req.WaterFlowKgH, maxWaterFlowKgH)
	}

	req.Fault = strings.TrimSpace(req.Fault)
	sc, err := faults.Parse(req.Fault)
	if err != nil {
		return nil, err
	}
	p.scenario = sc

	var mappingKey string
	if req.Benchmark != "" {
		b, err := workload.ByName(req.Benchmark)
		if err != nil {
			return nil, err
		}
		if req.Cores == 0 {
			req.Cores = 8
		}
		if req.Threads == 0 {
			req.Threads = req.Cores
		}
		if req.FreqGHz == 0 {
			req.FreqGHz = float64(power.FMax)
		}
		wcfg := workload.Config{Cores: req.Cores, Threads: req.Threads, Freq: power.Frequency(req.FreqGHz)}
		if !wcfg.Valid() {
			return nil, fmt.Errorf("invalid execution config %s: want 1..8 cores, threads = cores or 2×cores, freq in {2.6, 2.9, 3.2}", wcfg)
		}
		if len(req.ActiveCores) == 0 {
			for i := 0; i < req.Cores; i++ {
				req.ActiveCores = append(req.ActiveCores, i)
			}
		}
		if len(req.ActiveCores) != req.Cores {
			return nil, fmt.Errorf("active_cores lists %d cores for a %d-core config", len(req.ActiveCores), req.Cores)
		}
		sort.Ints(req.ActiveCores)
		for i, c := range req.ActiveCores {
			if c < 0 || c > 7 {
				return nil, fmt.Errorf("active core %d out of range 0..7", c)
			}
			if i > 0 && req.ActiveCores[i-1] == c {
				return nil, fmt.Errorf("active core %d listed twice", c)
			}
		}
		if req.Idle == "" {
			req.Idle = power.POLL.String()
		}
		idle, err := parseIdle(req.Idle)
		if err != nil {
			return nil, err
		}
		m := core.Mapping{ActiveCores: req.ActiveCores, IdleState: idle, Config: wcfg}
		p.st = core.PackageState(b, m)
		mappingKey = fmt.Sprintf("bench=%s cores=%d threads=%d freq=%.1f active=%v idle=%s",
			req.Benchmark, req.Cores, req.Threads, req.FreqGHz, req.ActiveCores, req.Idle)
	} else {
		for name, w := range req.BlockPowerW {
			if !s.dieBlocks[name] {
				return nil, fmt.Errorf("block_power_w names unknown block %q", name)
			}
			if w < 0 {
				return nil, fmt.Errorf("block %q has negative power %g W", name, w)
			}
			if w > maxBlockPowerW {
				return nil, fmt.Errorf("block %q power %g W over the %g W limit", name, w, maxBlockPowerW)
			}
		}
		p.bp = req.BlockPowerW
		// json.Marshal sorts map keys, so this sub-key is canonical.
		b, err := canonicalJSON(req.BlockPowerW)
		if err != nil {
			return nil, err
		}
		mappingKey = "power=" + string(b)
	}

	p.class = classKey{poolKey{solver: solver, resolution: res, fault: req.Fault}, mappingKey}
	p.req = req
	keyBytes, err := canonicalJSON(req)
	if err != nil {
		return nil, err
	}
	p.key = string(keyBytes)
	return p, nil
}

// newSession is the pools' session factory: a session on sys with the
// key's solver and the budget's team width. It never carries a warm start
// across solves, so every response is reproducible.
func (s *Server) newSession(key poolKey, sys *cosim.System) *cosim.Session {
	opts := []cosim.SessionOption{cosim.WithSolver(key.solver), cosim.CarryWarmStart(false)}
	if s.cfg.Threads > 1 {
		opts = append(opts, cosim.WithThreads(s.cfg.Threads))
	}
	return sys.NewSession(opts...)
}

// operatingFor derates the requested coolant flow by the scenario's pump
// and blade-level cooling faults, mirroring how the datacenter solver
// derates a faulted fleet.
func (p *steadyProposal) operatingFor() thermosyphon.Operating {
	op := p.op
	l := p.scenario.ApplyLoop(rack.SharedLoop{PerBladeFlowKgH: op.WaterFlowKgH}, serveLoopName)
	op.WaterFlowKgH = l.PerBladeFlowKgH * p.scenario.FlowScale(serveLoopName, serveBladeName)
	return op
}

// solveSteady runs one proposal on a pooled session the caller owns and
// renders the response.
func (s *Server) solveSteady(ctx context.Context, ses *cosim.Session, p *steadyProposal) (*SteadyResponse, error) {
	op := p.operatingFor()
	sys := ses.System()
	var (
		res *cosim.Result
		err error
	)
	if p.bp != nil {
		res, err = ses.SolveSteadyPower(ctx, p.bp, op)
	} else {
		res, err = ses.SolveSteady(ctx, p.st, op)
	}
	if err != nil {
		return nil, err
	}
	die, err := sys.DieStats(res)
	if err != nil {
		return nil, err
	}
	pkg, err := sys.PackageStats(res)
	if err != nil {
		return nil, err
	}
	blocks, err := sys.BlockTemps(res)
	if err != nil {
		return nil, err
	}
	tcase := sys.TCase(res)
	budget, err := chiller.Assess(op.WaterFlowKgH, op.WaterInC, res.Syphon.Condenser.WaterOutC, ambientC)
	if err != nil {
		return nil, err
	}
	pue, err := chiller.PUE(res.TotalPowerW, budget.ChillerPowerW)
	if err != nil {
		return nil, err
	}
	out := &SteadyResponse{
		Proposal:    p.req,
		DieMaxC:     die.MaxC,
		DieMeanC:    die.MeanC,
		DieGradCPmm: die.MaxGradCPerMM,
		PkgMaxC:     pkg.MaxC,
		PkgMeanC:    pkg.MeanC,
		TCaseC:      tcase,
		TotalPowerW: res.TotalPowerW,
		Iterations:  res.Iterations,
		DryoutCells: res.Syphon.DryoutCells,
		Feasible:    tcase <= sched.TCaseMax && res.Syphon.DryoutCells == 0,
		Cooling: SteadyCooling{
			WaterOutC:     res.Syphon.Condenser.WaterOutC,
			DeltaTC:       budget.WaterDeltaT,
			Eq1PowerW:     budget.Eq1PowerW,
			ChillerPowerW: budget.ChillerPowerW,
			PUE:           pue,
		},
		MaxQuality:  res.Syphon.MaxQuality,
		FlowKgHUsed: op.WaterFlowKgH,
	}
	out.Blocks = make([]BlockTempJSON, len(blocks))
	for i, b := range blocks {
		out.Blocks[i] = BlockTempJSON{Name: b.Name, MeanC: b.MeanC, MaxC: b.MaxC}
	}
	return out, nil
}

// handleSteady is POST /v1/steady: memo hit → stored bytes; miss →
// single-flight per proposal (duplicates wait for the leader's outcome
// instead of competing for admission), admission, pooled session, solve
// under the request deadline, memoize, reply.
func (s *Server) handleSteady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	s.stats.steadyRequests.Add(1)
	var req SteadyRequest
	if !decode(w, r, &req, false) {
		return
	}
	p, err := s.normalizeSteady(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if body, ok := s.memo.get(p.key); ok {
		s.stats.memoHits.Add(1)
		writeCached(w, body, "hit")
		return
	}

	ctx, cancel := experiments.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	f, leader := s.flights.join(p.key)
	if !leader {
		// An identical proposal is already solving: share its outcome.
		select {
		case <-f.done:
		case <-ctx.Done():
			s.writeFailure(w, solveStatus(ctx.Err()), solveMsg(ctx.Err()), 0)
			return
		}
		if f.body != nil {
			s.stats.memoHits.Add(1)
			writeCached(w, f.body, "hit")
			return
		}
		s.writeFailure(w, f.status, f.errMsg, f.retryAfter)
		return
	}
	s.leadFlight(ctx, p, f)
	if f.body != nil {
		s.stats.memoMisses.Add(1)
		writeCached(w, f.body, "miss")
		return
	}
	s.writeFailure(w, f.status, f.errMsg, f.retryAfter)
}

// leadFlight solves the proposal as its flight's leader and publishes the
// outcome in f. The flight is finished even when the solve panics, so
// waiters and later arrivals see a 500 instead of blocking on a flight
// no one will close; the panic itself goes on to the recovery middleware.
func (s *Server) leadFlight(ctx context.Context, p *steadyProposal, f *flight) {
	defer s.flights.finish(p.key, f)
	f.status, f.errMsg = http.StatusInternalServerError, "steady solve panicked"
	f.body, f.status, f.errMsg, f.retryAfter = s.solveProposal(ctx, p)
}

// solveProposal runs the miss path end to end — breaker, admission,
// pooled session, solve, memoize — and returns the response body, or a
// non-zero HTTP status with a message and an optional Retry-After hint in
// seconds.
func (s *Server) solveProposal(ctx context.Context, p *steadyProposal) ([]byte, int, string, int) {
	// The circuit breaker sits before admission: a tripped proposal class
	// must not consume solve slots other classes could use.
	tok, ra := s.breakers.admit(p.class)
	if tok == nil {
		return nil, http.StatusServiceUnavailable,
			"circuit breaker open for this proposal class; retry after the cooldown", ra
	}
	// Every exit path below must settle the ticket, or a half-open probe
	// slot would leak and wedge the class; the default neutral outcome
	// covers the paths where the solver never got a say (admission or
	// system build failure, client cancellation).
	outcome := outcomeNeutral
	defer func() { s.breakers.settle(tok, outcome) }()
	release, err := s.adm.acquire(ctx)
	if err != nil {
		if errors.Is(err, errBusy) {
			return nil, http.StatusTooManyRequests, err.Error(), s.retryAfterSecs()
		}
		return nil, solveStatus(err), solveMsg(err), 0
	}
	defer release()
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)

	pl, ses, err := s.pools.acquire(p.class.poolKey)
	if err != nil {
		return nil, http.StatusInternalServerError, err.Error(), 0
	}
	// The session is released on every exit, a panic included. Any exit
	// but a clean success releases it poisoned, so no later request
	// inherits a session a failed or panicked solve left behind.
	poisoned := true
	defer func() { s.pools.release(pl, ses, poisoned) }()
	resp, err := s.solve(ctx, ses, p)
	// The breaker counts hard solver failures as bad; client
	// cancellations and deadlines are not the solver's fault and stay
	// neutral.
	switch {
	case err == nil:
		outcome = outcomeGood
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// outcome stays neutral
	default:
		outcome = outcomeBad
	}
	if err != nil {
		// A failed solve poisons the session (poisoned is still set): the
		// release closes it instead of pooling it.
		return nil, solveStatus(err), solveMsg(err), 0
	}
	poisoned = false
	body, err := canonicalJSON(resp)
	if err != nil {
		return nil, http.StatusInternalServerError, err.Error(), 0
	}
	body = append(body, '\n')
	// Memoize before the flight finishes: later arrivals re-check the
	// memo first, so the window between finish and put must not exist.
	s.memo.put(p.key, body)
	return body, 0, "", 0
}

// writeFailure renders a non-200 solve-path outcome, keeping the 429
// bookkeeping (rejected counter) and the Retry-After hint in one place.
func (s *Server) writeFailure(w http.ResponseWriter, status int, msg string, retryAfterSecs int) {
	if status == http.StatusTooManyRequests {
		s.stats.rejected.Add(1)
		if retryAfterSecs <= 0 {
			retryAfterSecs = s.retryAfterSecs()
		}
	}
	writeError(w, status, msg, retryAfterSecs)
}

// rejectSolve maps admission failures for the non-memoized handlers
// (transient, experiments): queue full → 429 backpressure, deadline → 504.
func (s *Server) rejectSolve(w http.ResponseWriter, err error) {
	if errors.Is(err, errBusy) {
		s.writeFailure(w, http.StatusTooManyRequests, err.Error(), s.retryAfterSecs())
		return
	}
	s.solveError(w, err)
}

// solveError maps solve failures to statuses via solveStatus/solveMsg.
func (s *Server) solveError(w http.ResponseWriter, err error) {
	writeError(w, solveStatus(err), solveMsg(err))
}

// solveStatus maps a solve failure to an HTTP status: deadline → 504,
// client cancellation → 499 (nginx's convention, there is no standard
// code), anything else → 500.
func solveStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusInternalServerError
	}
}

func solveMsg(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "solve deadline exceeded"
	case errors.Is(err, context.Canceled):
		return "client cancelled"
	default:
		return err.Error()
	}
}

func writeCached(w http.ResponseWriter, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.Write(body)
}

// canonicalJSON marshals with encoding/json's deterministic rules (fixed
// struct field order, sorted map keys) — the byte-determinism contract of
// the memo keys and response bodies leans on it.
func canonicalJSON(v any) ([]byte, error) {
	return json.Marshal(v)
}
