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
	"repro/internal/thermosyphon"
)

// transientBlade is one registered blade: its thermal state advances
// across requests, so a client can stream a power trace in chunks and the
// blade's temperature history is continuous. A blade holds values, not a
// session: each step chunk borrows a session from the blade's pool, opens
// a TransientSim on it from state, and returns it. Steps serialize
// through mu.
type transientBlade struct {
	mu   sync.Mutex
	name string
	// key selects the pool its chunks borrow sessions from, and op is the
	// derated operating point they step at.
	key poolKey
	op  thermosyphon.Operating
	// state is the sim's state after the last committed chunk, and last
	// is the sample taken at it, which answers status requests.
	state *cosim.TransientState
	last  TransientSample
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

// remove unregisters a blade, waiting out any in-flight step chunk.
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
// per-blade locks, so a step chunk finishing concurrently cannot deadlock.
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

// status snapshots the blade under its step lock.
func (b *transientBlade) status() TransientStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return TransientStatus{
		Blade:      b.name,
		TimeS:      b.last.TimeS,
		DieMaxC:    b.last.DieMaxC,
		TCaseC:     b.last.TCaseC,
		BasePowerW: power.SumBlockPowers(b.base),
	}
}

// sampleOf reads a sim's clock, die hot spot and case temperature.
func sampleOf(sim *cosim.TransientSim) (TransientSample, error) {
	dieMax, err := sim.DieMax()
	if err != nil {
		return TransientSample{}, err
	}
	return TransientSample{TimeS: sim.Time(), DieMaxC: dieMax, TCaseC: sim.TCase()}, nil
}

// handleTransientList is /v1/transient: GET lists registered blades, POST
// registers a new one.
func (s *Server) handleTransientList(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		names := s.trans.names()
		out := make([]TransientStatus, 0, len(names))
		for _, n := range names {
			if b, ok := s.trans.get(n); ok {
				out = append(out, b.status())
			}
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
	if !decode(w, r, &req, false) {
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
	// A registration borrows a pooled session, possibly building it, to
	// open the blade's first sim — gate it through admission like any
	// other solve-class request.
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		s.rejectSolve(w, err)
		return
	}
	defer release()

	b := &transientBlade{name: req.Blade, req: p.req, initialC: initial}
	if status, err := s.addBlade(b, p, nil); err != nil {
		retryAfter := 0
		if status == http.StatusTooManyRequests {
			retryAfter = s.retryAfterSecs()
		}
		writeError(w, status, err.Error(), retryAfter)
		return
	}
	writeJSON(w, http.StatusCreated, b.status())
}

// addBlade gives b its state, on a session borrowed from the normalized
// proposal p's pool: a sim opened at b.initialC, or resumed from state
// when a checkpoint restore supplies one (Resume validates it). It then
// registers the blade. Registration and restore share it. The returned
// status is the HTTP code a registration answers a failure with.
func (s *Server) addBlade(b *transientBlade, p *steadyProposal, state *cosim.TransientState) (int, error) {
	pl, ses, err := s.pools.acquire(p.class.poolKey)
	if err != nil {
		return http.StatusInternalServerError, err
	}
	op := p.operatingFor()
	var sim *cosim.TransientSim
	if state != nil {
		sim, err = ses.Resume(op, state)
	} else {
		sim, err = ses.Transient(op, b.initialC)
	}
	if err == nil {
		b.last, err = sampleOf(sim)
	}
	if err == nil {
		b.key, b.op, b.state = p.class.poolKey, op, sim.ExportState()
		b.base = basePower(ses.System(), p)
	}
	s.pools.release(pl, ses, err != nil)
	if err != nil {
		return http.StatusBadRequest, err
	}
	if err := s.trans.add(b); err != nil {
		if err == errTransientsFull {
			return http.StatusTooManyRequests, err
		}
		return http.StatusConflict, err
	}
	return http.StatusCreated, nil
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
		writeJSON(w, http.StatusOK, b.status())
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
	if !decode(w, r, &req, false) {
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
	if len(req.Steps) > s.maxSteps {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("chunk of %d steps exceeds the %d-step cap; split the trace", len(req.Steps), s.maxSteps))
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
	// opening a sim, and refuse the whole chunk if any increment fails.
	for i, t := 0, b.state.TimeS; i <= len(req.Steps); i++ {
		next := t + req.DtS
		if !(next > t) || math.IsInf(next, 0) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"dt_s %g: the blade clock at %g s cannot take %d more steps of it", req.DtS, b.state.TimeS, len(req.Steps)+1))
			return
		}
		t = next
	}
	// A chunk applies atomically: it steps a sim opened from the blade's
	// state on a borrowed session, and the blade takes the sim's new state
	// only once every step succeeded. A failed or cancelled chunk commits
	// nothing, so a retry never re-applies steps a failed attempt took —
	// the exactly-once contract holds even for chunks that die
	// mid-flight. The session goes back poisoned unless the chunk
	// committed, like a failed steady solve's.
	pl, ses, err := s.pools.acquire(b.key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	poisoned := true
	defer func() { s.pools.release(pl, ses, poisoned) }()
	sim, err := ses.Resume(b.op, b.state)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	samples := make([]TransientSample, 0, len(req.Steps))
	scaled := make(map[string]float64, len(b.base))
	ctx := r.Context()
	for i, st := range req.Steps {
		if err := ctx.Err(); err != nil {
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
		if err := sim.Step(req.DtS, pw); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("step %d: %v", i, err))
			return
		}
		sample, err := sampleOf(sim)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		samples = append(samples, sample)
	}
	body, err := json.Marshal(map[string]any{"blade": name, "samples": samples})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// The chunk is committed only now: the state, the step count and the
	// dedup cursor advance together, after every step succeeded.
	b.state, b.last = sim.ExportState(), samples[len(samples)-1]
	poisoned = false
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
