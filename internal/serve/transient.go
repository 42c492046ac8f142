package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/cosim"
	"repro/internal/power"
)

// transientBlade is one registered blade with a persistent TransientSim:
// its thermal state advances across requests, so a client can stream a
// power trace in chunks and the blade's temperature history is continuous.
// Each blade owns a dedicated session (a session hosts at most one
// transient sim) on the System its (resolution, fault) pool shares;
// steps serialize through mu.
type transientBlade struct {
	mu   sync.Mutex
	name string
	sys  *cosim.System
	ses  *cosim.Session
	sim  *cosim.TransientSim
	// base is the registered per-block power map (W); step entries may
	// scale it with a load factor instead of respelling the full map.
	base map[string]float64
	// req/initialC reproduce the registration for checkpointing: a
	// restore replays exactly the normalized proposal this blade was
	// built from.
	req      SteadyRequest
	initialC float64
	// lastSeq/lastBody are the exactly-once replay cache: a step chunk
	// carrying seq == lastSeq is a retry of the last applied chunk and is
	// answered with the cached body instead of advancing the sim again.
	lastSeq  int64
	lastBody []byte
	dead     bool
}

// transients is the bounded registry of live blades.
type transients struct {
	mu     sync.Mutex
	cap    int
	byName map[string]*transientBlade
}

func newTransients(capacity int) *transients {
	return &transients{cap: capacity, byName: make(map[string]*transientBlade)}
}

var errTransientsFull = fmt.Errorf("serve: transient blade registry full")

// add registers a blade, refusing duplicates and over-capacity.
func (t *transients) add(b *transientBlade) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byName[b.name]; ok {
		return fmt.Errorf("blade %q already registered", b.name)
	}
	if len(t.byName) >= t.cap {
		return errTransientsFull
	}
	t.byName[b.name] = b
	return nil
}

func (t *transients) get(name string) (*transientBlade, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.byName[name]
	return b, ok
}

// remove unregisters a blade and closes its session, waiting out any
// in-flight step chunk.
func (t *transients) remove(name string) bool {
	t.mu.Lock()
	b, ok := t.byName[name]
	delete(t.byName, name)
	t.mu.Unlock()
	if !ok {
		return false
	}
	b.mu.Lock()
	b.dead = true
	b.mu.Unlock()
	b.ses.Close()
	return true
}

func (t *transients) names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.byName))
	for n := range t.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (t *transients) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byName)
}

// closeAll retires every blade. The registry lock is dropped before the
// per-blade locks, so a step chunk finishing concurrently cannot deadlock;
// the idempotent Session.Close makes the race with remove harmless.
func (t *transients) closeAll() {
	t.mu.Lock()
	blades := make([]*transientBlade, 0, len(t.byName))
	for _, b := range t.byName {
		blades = append(blades, b)
	}
	t.byName = make(map[string]*transientBlade)
	t.mu.Unlock()
	for _, b := range blades {
		b.mu.Lock()
		b.dead = true
		b.mu.Unlock()
		b.ses.Close()
	}
}

// TransientRegisterRequest registers a blade: the embedded proposal fixes
// the power source (benchmark mapping or explicit block powers), the
// coolant operating point, solver and resolution; InitialC seeds the
// uniform starting temperature (default: the coolant inlet temperature).
type TransientRegisterRequest struct {
	Blade    string  `json:"blade"`
	InitialC float64 `json:"initial_c,omitempty"`
	SteadyRequest
}

// TransientStep is one entry of a trace chunk: either an explicit
// per-block power map or a load factor scaling the registered base power.
type TransientStep struct {
	Load        *float64           `json:"load,omitempty"`
	BlockPowerW map[string]float64 `json:"block_power_w,omitempty"`
}

// TransientStepRequest advances a blade by len(Steps) × DtS seconds.
// Seq, when positive, makes the chunk exactly-once: the client numbers
// chunks 1, 2, 3, … per blade, and a retried chunk (same seq as the last
// applied one) replays the cached response instead of advancing the sim
// again — a network-level retry can never double-step a blade. Seq 0
// opts out (legacy at-least-once behavior).
type TransientStepRequest struct {
	Seq   int64           `json:"seq,omitempty"`
	DtS   float64         `json:"dt_s"`
	Steps []TransientStep `json:"steps"`
}

// TransientSample is the blade state after one step.
type TransientSample struct {
	TimeS   float64 `json:"time_s"`
	DieMaxC float64 `json:"die_max_c"`
	TCaseC  float64 `json:"tcase_c"`
}

// TransientStatus describes a registered blade.
type TransientStatus struct {
	Blade      string  `json:"blade"`
	TimeS      float64 `json:"time_s"`
	DieMaxC    float64 `json:"die_max_c"`
	TCaseC     float64 `json:"tcase_c"`
	BasePowerW float64 `json:"base_power_w"`
}

func (b *transientBlade) status() (TransientStatus, error) {
	dieMax, err := b.sim.DieMax()
	if err != nil {
		return TransientStatus{}, err
	}
	return TransientStatus{
		Blade:      b.name,
		TimeS:      b.sim.Time(),
		DieMaxC:    dieMax,
		TCaseC:     b.sim.TCase(),
		BasePowerW: power.SumBlockPowers(b.base),
	}, nil
}

// handleTransientList is /v1/transient: GET lists registered blades, POST
// registers a new one.
func (s *Server) handleTransientList(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		names := s.trans.names()
		out := make([]TransientStatus, 0, len(names))
		for _, n := range names {
			b, ok := s.trans.get(n)
			if !ok {
				continue
			}
			b.mu.Lock()
			st, err := b.status()
			b.mu.Unlock()
			if err != nil {
				writeError(w, http.StatusInternalServerError, err.Error())
				return
			}
			out = append(out, st)
		}
		writeJSON(w, http.StatusOK, map[string]any{"blades": out})
	case http.MethodPost:
		s.handleTransientRegister(w, r)
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// A blade's uniform starting temperature must lie in the storage range
// semiconductor packages are rated for, −55 to 150 °C: no blade of the
// modelled hardware starts outside it, and the default (the coolant
// inlet, 0–90 °C) lies inside. Far outside it a request describes no
// physical blade: −500 °C is below absolute zero, and 1e200 °C overflows
// the first step's linear solve into NaN.
const (
	minInitialC = -55
	maxInitialC = 150
)

// validateRegistration checks the fields a transient registration adds to
// its proposal: the blade name and the resolved initial temperature.
// Registration and checkpoint restore share it. A blade is addressed as
// /v1/transient/{blade}, so its name must be exactly one path segment: a
// "/" would split it, and the mux cleans "." and ".." out of the path.
func validateRegistration(blade string, initialC float64) error {
	switch {
	case blade == "":
		return errors.New("blade name required")
	case strings.Contains(blade, "/") || blade == "." || blade == "..":
		return fmt.Errorf("blade name %q is not a single path segment", blade)
	case !(initialC >= minInitialC && initialC <= maxInitialC):
		return fmt.Errorf("initial_c %g °C outside [%d, %d] °C", initialC, minInitialC, maxInitialC)
	}
	return nil
}

func (s *Server) handleTransientRegister(w http.ResponseWriter, r *http.Request) {
	var req TransientRegisterRequest
	if err := s.decode(w, r, &req, false); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	p, err := s.normalizeSteady(req.SteadyRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	initial := req.InitialC
	if initial == 0 {
		initial = p.op.WaterInC
	}
	if err := validateRegistration(req.Blade, initial); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A registration builds a dedicated session (a session hosts at most
	// one transient sim) on its pool's shared System, so it pays a cold
	// build — gate it through admission like any other solve-class request.
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		s.rejectSolve(w, err)
		return
	}
	defer release()

	ses, err := s.pools.own(p.class.poolKey)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sys := ses.System()
	sim, err := ses.Transient(p.operatingFor(), initial)
	if err != nil {
		ses.Close()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	b := &transientBlade{
		name: req.Blade, sys: sys, ses: ses, sim: sim, base: basePower(sys, p),
		req: p.req, initialC: initial,
	}
	if err := s.trans.add(b); err != nil {
		ses.Close()
		status := http.StatusConflict
		retryAfter := 0
		if err == errTransientsFull {
			status = http.StatusTooManyRequests
			retryAfter = s.retryAfterSecs()
		}
		writeError(w, status, err.Error(), retryAfter)
		return
	}
	b.mu.Lock()
	st, err := b.status()
	b.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// basePower is the per-block power map (W) a blade's load factors scale,
// derived from its normalized proposal at registration and on restore:
// the explicit block powers, copied, else the package state's powers.
func basePower(sys *cosim.System, p *steadyProposal) map[string]float64 {
	if p.bp == nil {
		return sys.Power.BlockPowers(p.st)
	}
	base := make(map[string]float64, len(p.bp))
	for k, v := range p.bp {
		base[k] = v
	}
	return base
}

// handleTransientOp routes /v1/transient/{blade} (GET status, DELETE
// release) and /v1/transient/{blade}/step (POST a trace chunk).
func (s *Server) handleTransientOp(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/transient/")
	name, op, _ := strings.Cut(rest, "/")
	if name == "" {
		writeError(w, http.StatusNotFound, "missing blade name")
		return
	}
	switch {
	case op == "" && r.Method == http.MethodGet:
		b, ok := s.trans.get(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("blade %q not registered", name))
			return
		}
		b.mu.Lock()
		st, err := b.status()
		b.mu.Unlock()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, st)
	case op == "" && r.Method == http.MethodDelete:
		if !s.trans.remove(name) {
			writeError(w, http.StatusNotFound, fmt.Sprintf("blade %q not registered", name))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"released": name})
	case op == "step" && r.Method == http.MethodPost:
		s.handleTransientStep(w, r, name)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET/DELETE /v1/transient/{blade} or POST /v1/transient/{blade}/step")
	}
}

func (s *Server) handleTransientStep(w http.ResponseWriter, r *http.Request, name string) {
	var req TransientStepRequest
	if err := s.decode(w, r, &req, false); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.DtS <= 0 {
		writeError(w, http.StatusBadRequest, "dt_s must be positive")
		return
	}
	if len(req.Steps) == 0 {
		writeError(w, http.StatusBadRequest, "steps required")
		return
	}
	if len(req.Steps) > s.cfg.MaxSteps {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("chunk of %d steps exceeds the %d-step cap; split the trace", len(req.Steps), s.cfg.MaxSteps))
		return
	}
	b, ok := s.trans.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("blade %q not registered", name))
		return
	}
	// Exactly-once fast path: a retried chunk is answered from the replay
	// cache before it competes for a solve slot.
	if req.Seq > 0 {
		b.mu.Lock()
		replayed := s.replayStep(w, b, req.Seq)
		b.mu.Unlock()
		if replayed {
			return
		}
	}
	// Validate step power maps before taking a solve slot.
	for i, st := range req.Steps {
		if st.BlockPowerW != nil && st.Load != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("step %d: load and block_power_w are mutually exclusive", i))
			return
		}
		for blk, pw := range st.BlockPowerW {
			if !s.dieBlocks[blk] {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("step %d names unknown block %q", i, blk))
				return
			}
			if pw < 0 {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("step %d: block %q has negative power", i, blk))
				return
			}
		}
		if st.Load != nil && *st.Load < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("step %d: negative load", i))
			return
		}
	}
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		s.rejectSolve(w, err)
		return
	}
	defer release()
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		writeError(w, http.StatusGone, fmt.Sprintf("blade %q released", name))
		return
	}
	// Re-check the replay cache under the step lock: a concurrent retry of
	// the same chunk may have applied it while this request waited for
	// admission or the lock.
	if req.Seq > 0 && s.replayStep(w, b, req.Seq) {
		return
	}
	// Every step must move the blade's clock to a finite later time, and
	// the clock must still resolve dt_s where the chunk leaves it, so the
	// stream can go on at the same cadence. Replay the clock's
	// accumulation — one increment per step plus that one more — before
	// touching the sim, and refuse the whole chunk if any increment fails.
	for i, t := 0, b.sim.Time(); i <= len(req.Steps); i++ {
		next := t + req.DtS
		if !(next > t) || math.IsInf(next, 0) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"dt_s %g: the blade clock at %g s cannot take %d more steps of it", req.DtS, b.sim.Time(), len(req.Steps)+1))
			return
		}
		t = next
	}
	// A chunk applies atomically: snapshot the sim before the first step
	// and roll back to it if anything fails or the client cancels partway
	// through. Without the rollback a retried chunk would re-apply steps
	// the failed attempt already took, double-stepping the successful
	// prefix — the exactly-once contract must hold even for chunks that
	// die mid-flight.
	pre := b.sim.ExportState()
	rollback := func() {
		if err := b.sim.ImportState(pre); err != nil {
			// A same-sim snapshot can only fail to import if the state was
			// corrupted in flight; the blade is unrecoverable — kill it so
			// clients re-register instead of streaming onto unknown state.
			b.dead = true
		}
	}
	samples := make([]TransientSample, 0, len(req.Steps))
	scaled := make(map[string]float64, len(b.base))
	ctx := r.Context()
	for i, st := range req.Steps {
		if err := ctx.Err(); err != nil {
			rollback()
			s.solveError(w, err)
			return
		}
		pw := b.base
		if st.BlockPowerW != nil {
			pw = st.BlockPowerW
		} else if st.Load != nil {
			for k, v := range b.base {
				scaled[k] = v * *st.Load
			}
			pw = scaled
		}
		if err := b.sim.Step(req.DtS, pw); err != nil {
			rollback()
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("step %d: %v", i, err))
			return
		}
		dieMax, err := b.sim.DieMax()
		if err != nil {
			rollback()
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		samples = append(samples, TransientSample{
			TimeS:   b.sim.Time(),
			DieMaxC: dieMax,
			TCaseC:  b.sim.TCase(),
		})
	}
	body, err := json.Marshal(map[string]any{"blade": name, "samples": samples})
	if err != nil {
		rollback()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// The chunk is committed only now: steps are counted and the dedup
	// cursor advances together, after every step succeeded.
	s.stats.transientSteps.Add(int64(len(req.Steps)))
	body = append(body, '\n')
	if req.Seq > 0 {
		// Record the applied chunk before responding, so a retry that races
		// the response replays rather than double-steps.
		b.lastSeq = req.Seq
		b.lastBody = append([]byte(nil), body...)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// replayStep answers a retried or stale step chunk from the blade's
// exactly-once cache. The caller holds b.mu. It returns true when the
// request was fully handled (replayed or refused): seq == lastSeq is the
// retry of the last applied chunk and gets its cached body back verbatim
// (flagged with X-Replayed so clients and tests can tell); seq < lastSeq
// is an out-of-order duplicate whose body is long gone — 409, the client
// must resynchronize from GET status.
func (s *Server) replayStep(w http.ResponseWriter, b *transientBlade, seq int64) bool {
	switch {
	case seq == b.lastSeq && b.lastBody != nil:
		s.stats.stepsDeduped.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Replayed", "true")
		w.WriteHeader(http.StatusOK)
		w.Write(b.lastBody)
		return true
	case seq < b.lastSeq:
		writeError(w, http.StatusConflict,
			fmt.Sprintf("stale seq %d: blade %q already advanced past seq %d", seq, b.name, b.lastSeq))
		return true
	}
	return false
}
