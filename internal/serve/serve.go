// Package serve is the thermal digital-twin service layer: a long-running
// HTTP/JSON front end over the warm solve stack that PRs 1–8 built. It
// turns the batch CLIs into a daemon where a warm-cache hit *is* the
// product — a repeated steady what-if query against the same
// floorplan+mapping answers from the response memo in well under a
// millisecond, while a cold miss pays the full system build + coupled
// solve.
//
// The subsystem has four moving parts:
//
//   - Session pools: one cosim.Pool of non-carrying sessions per
//     (solver, resolution), on one System built with the healthy design.
//     A fault reaches the pool as a derated design, so every fault at
//     one resolution shares the System. A request owns its session from
//     Get to Put, so distinct mappings share sessions and only as many
//     exist per design as solves ran at once. The pool caps its idle
//     sessions, and a failed or panicked solve discards its session
//     instead of returning it: a poisoned session never serves another
//     request.
//   - A response memo (memo.go) with single-flight misses (flight.go): an
//     LRU of canonical proposal → response body bytes. Identical proposals
//     return byte-identical bodies across cache hit/miss and across
//     concurrent clients; racing identical misses collapse onto one solve
//     and one admission slot, the followers sharing the leader's outcome.
//   - Bounded admission (admission.go): at most Workers concurrent solves
//     (resolved through experiments.RunConfig.SplitBudget, the same
//     workers×threads core budget the sweep engine uses) with a bounded
//     wait queue; beyond it, requests are refused with 429 + Retry-After
//     instead of piling up.
//   - Graceful drain: BeginDrain flips every endpoint to 503, in-flight
//     requests finish (http.Server.Shutdown's contract), then Close
//     retires every pooled session and registered transient blade.
//
// Determinism contract: every solve seeds exactly like a fresh-session
// solve (pooled sessions never carry a warm start across requests), so a
// recomputed response — after memo eviction, on another session, on a
// fresh server — is byte-identical to the first.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cosim"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// Config parameterizes a Server. The zero value is usable: coarse
// resolution, the CG solver and an auto-split core budget. Cache and
// queue capacities are package constants.
type Config struct {
	// Resolution is the default thermal grid density for proposals that
	// do not select one.
	Resolution experiments.Resolution
	// Solver is the default linear solver for proposals that do not
	// select one.
	Solver thermal.Solver
	// Workers bounds concurrent solves; Threads is the per-session team
	// width. Either zero is resolved through the shared
	// experiments.RunConfig.SplitBudget core budget (workers × threads ≤
	// GOMAXPROCS, width-first), exactly like a sweep.
	Workers int
	Threads int
	// RequestTimeout bounds each request's solve (0 = no limit). The
	// deadline threads through the ctx-aware solve loops, so a timed-out
	// solve aborts between coupling iterations.
	RequestTimeout time.Duration
	// CheckpointPath, when set, enables transient-state checkpointing:
	// POST /v1/checkpoint snapshots on demand, Close snapshots on drain,
	// and CheckpointEvery (when positive) snapshots periodically. The
	// file is versioned, checksummed, and written atomically.
	CheckpointPath  string
	CheckpointEvery time.Duration
	// RestoreOnStart restores the transient registry from CheckpointPath
	// during New: every checkpointed blade resumes at its exact simulated
	// time. A missing file is a fresh boot; a corrupt file fails New.
	RestoreOnStart bool
}

const (
	// queuePerWorker sizes the admission wait queue: at most
	// queuePerWorker×Workers admitted requests wait for a solve slot
	// before new ones are refused with 429.
	queuePerWorker = 2
	// memoEntries caps the response memo, in bodies.
	memoEntries = 4096
	// maxTransients caps concurrently registered transient blades.
	maxTransients = 16
	// maxSteps caps the steps of one transient chunk.
	maxSteps = 10000
	// breakerThreshold is the consecutive hard solve failures that trip a
	// proposal class's circuit breaker; breakerCooldown is how long a
	// tripped breaker refuses with 503 before half-open probing.
	breakerThreshold = 3
	breakerCooldown  = 5 * time.Second
)

func (c Config) withDefaults() Config {
	rc := experiments.RunConfig{Workers: c.Workers, Threads: c.Threads}.
		SplitBudget(runtime.GOMAXPROCS(0))
	c.Workers, c.Threads = rc.Workers, rc.Threads
	return c
}

// Stats is the server's observability snapshot (GET /v1/stats). Counters
// are cumulative since start; gauges are instantaneous.
type Stats struct {
	SteadyRequests int64 `json:"steady_requests"`
	MemoHits       int64 `json:"memo_hits"`
	MemoMisses     int64 `json:"memo_misses"`
	// A solve reuses an idle pooled session or builds one. Evictions
	// counts pooled sessions closed before drain: poisoned or over the
	// cap. Sessions is the idle ones now. Each sums the session pools.
	SessionReuses  int64 `json:"session_reuses"`
	SessionBuilds  int64 `json:"session_builds"`
	Evictions      int64 `json:"evictions"`
	Rejected       int64 `json:"rejected"`
	TransientSteps int64 `json:"transient_steps"`
	ExperimentRuns int64 `json:"experiment_runs"`
	InFlight       int64 `json:"in_flight"`
	// Resilience counters: handler panics turned into structured 500s,
	// retried transient step chunks answered from the dedup cache (the
	// observable trace of exactly-once stepping), circuit-breaker trips
	// and per-breaker state, and checkpoint activity.
	PanicsRecovered          int64        `json:"panics_recovered"`
	StepsDeduped             int64        `json:"steps_deduped"`
	BreakerTrips             int64        `json:"breaker_trips"`
	Breakers                 BreakerStats `json:"breakers"`
	CheckpointSaves          int64        `json:"checkpoint_saves"`
	CheckpointBladesRestored int64        `json:"checkpoint_blades_restored"`
	Sessions                 int          `json:"sessions"`
	Transients               int          `json:"transients"`
	Draining                 bool         `json:"draining"`
}

type counters struct {
	steadyRequests atomic.Int64
	memoHits       atomic.Int64
	memoMisses     atomic.Int64
	rejected       atomic.Int64
	transientSteps atomic.Int64
	experimentRuns atomic.Int64
	inFlight       atomic.Int64

	panicsRecovered    atomic.Int64
	stepsDeduped       atomic.Int64
	checkpointSaves    atomic.Int64
	checkpointRestored atomic.Int64
}

// Server owns the session pools, the response memo, the transient-blade
// registry and the admission queue. Create one with New, mount Handler on
// an http.Server, and on shutdown call BeginDrain, then
// http.Server.Shutdown, then Close.
type Server struct {
	cfg Config
	// poolsMu guards pools, the session pool of each (solver,
	// resolution) served so far.
	poolsMu  sync.Mutex
	pools    map[systemKey]*cosim.Pool
	memo     *memo
	flights  *flights
	trans    *transients
	adm      *admission
	breakers *breakerSet
	stats    counters
	// maxSteps is the transient chunk cap, New's copy of the package
	// constant; tests override it.
	maxSteps int
	draining atomic.Bool
	closed   atomic.Bool
	// dieBlocks is the valid block-name set of the served floorplan, for
	// request validation before any system is built.
	dieBlocks map[string]bool

	// solve runs one proposal on a pooled session the caller owns. New
	// sets it to solveSteady; it is the one seam tests wrap to inject
	// solver faults.
	solve func(context.Context, *cosim.Session, steadyProposal) (*SteadyResponse, error)

	// ckptStop/ckptDone bracket the periodic checkpoint goroutine.
	ckptStop chan struct{}
	ckptDone chan struct{}
}

// New builds a Server; the configuration is validated and defaulted once
// here so every handler sees a resolved budget.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 1 || cfg.Threads < 1 {
		return nil, fmt.Errorf("serve: invalid budget %d workers × %d threads", cfg.Workers, cfg.Threads)
	}
	s := &Server{
		cfg:      cfg,
		memo:     newMemo(memoEntries),
		flights:  newFlights(),
		adm:      newAdmission(cfg.Workers, queuePerWorker*cfg.Workers),
		breakers: newBreakerSet(breakerThreshold, breakerCooldown),
		maxSteps: maxSteps,
		pools:    make(map[systemKey]*cosim.Pool),
	}
	s.solve = s.solveSteady
	s.trans = newTransients(maxTransients)
	fp := floorplan.BroadwellEP()
	s.dieBlocks = make(map[string]bool, len(fp.Blocks))
	for _, b := range fp.Blocks {
		s.dieBlocks[b.Name] = true
	}
	if cfg.RestoreOnStart && cfg.CheckpointPath != "" {
		if _, err := s.RestoreCheckpoint(); err != nil {
			s.closePools()
			return nil, err
		}
	}
	if cfg.CheckpointPath != "" && cfg.CheckpointEvery > 0 {
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop(cfg.CheckpointEvery)
	}
	return s, nil
}

// Config returns the resolved configuration (budget split applied).
func (s *Server) Config() Config { return s.cfg }

// Handler returns the service's HTTP handler: the route table behind the
// panic-recovery middleware, so a handler panic becomes a structured 500,
// never a dead process.
func (s *Server) Handler() http.Handler { return s.recoverMiddleware(s.routes()) }

// routes is the route table behind the drain gate. Every work endpoint
// refuses with 503 once the server is draining; in-flight requests are
// unaffected, and /healthz, /v1/stats, and /v1/checkpoint stay routable
// so operators can watch (and snapshot) the drain itself.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/steady", s.handleSteady)
	mux.HandleFunc("/v1/transient", s.handleTransientList)
	mux.HandleFunc("/v1/transient/", s.handleTransientOp)
	mux.HandleFunc("/v1/experiments", s.handleExperimentsList)
	mux.HandleFunc("/v1/experiments/", s.handleExperimentRun)
	mux.HandleFunc("/v1/checkpoint", s.handleCheckpoint)
	drainExempt := map[string]bool{"/healthz": true, "/v1/stats": true, "/v1/checkpoint": true}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() && !drainExempt[r.URL.Path] {
			writeError(w, http.StatusServiceUnavailable, "draining: not accepting new work",
				s.retryAfterSecs())
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// retryAfterSecs is the single source of the Retry-After hint every
// refusal (admission 429, registry-full 429, drain 503) carries: one
// second when the queue is empty, growing with the number of requests
// already waiting per solve slot, clamped to five seconds while
// draining — a draining server will not come back, so clients should
// fail over rather than hammer it.
func (s *Server) retryAfterSecs() int {
	if s.draining.Load() {
		return 5
	}
	secs := 1 + int(s.adm.waiting.Load())/s.cfg.Workers
	if secs > 5 {
		secs = 5
	}
	return secs
}

// BeginDrain flips the server into drain mode: every subsequent request
// is refused with 503 while in-flight requests run to completion. Call it
// before http.Server.Shutdown so clients on kept-alive connections get a
// clean refusal instead of a mid-handshake reset.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close drains (if not already draining) and retires every pooled solve
// session, releasing their worker teams, and every registered transient
// blade.
// Close is idempotent and must run after http.Server.Shutdown has
// returned, so no handler still owns a pooled session; one that does has
// its worker team released all the same.
// A configured checkpoint path gets a final on-drain snapshot first, so
// a graceful shutdown preserves every streaming blade for the next boot.
func (s *Server) Close() error {
	s.BeginDrain()
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone
	}
	var saveErr error
	if s.cfg.CheckpointPath != "" {
		_, saveErr = s.SaveCheckpoint()
	}
	s.trans.closeAll()
	s.closePools()
	return saveErr
}

// systemKey selects a System and its session pool. A fault changes only
// the thermosyphon design and the water flow, never the package, the
// grid or the floorplan, so every fault at one resolution solves on one
// System. The solver shapes the sessions the pool builds.
type systemKey struct {
	solver     thermal.Solver
	resolution experiments.Resolution
}

// session takes a session solving with design d from the key's pool,
// building the pool and its System (with the healthy design) on first
// use. A System build holds poolsMu; it is paid once per key, and there
// are at most two solvers × three resolutions. The caller owns the
// session until it hands it back with giveBack.
func (s *Server) session(key systemKey, d thermosyphon.Design) (pool *cosim.Pool, ses *cosim.Session, err error) {
	s.poolsMu.Lock()
	pool, ok := s.pools[key]
	if !ok {
		var sys *cosim.System
		if sys, err = experiments.NewSystem(thermosyphon.DefaultDesign(), key.resolution); err != nil {
			s.poolsMu.Unlock()
			return nil, nil, err
		}
		// Sessions never carry a warm start across solves, so every
		// response is reproducible.
		opts := []cosim.SessionOption{cosim.WithSolver(key.solver), cosim.CarryWarmStart(false)}
		if s.cfg.Threads > 1 {
			opts = append(opts, cosim.WithThreads(s.cfg.Threads))
		}
		pool = sys.NewPool(opts...)
		s.pools[key] = pool
	}
	s.poolsMu.Unlock()
	if ses, err = pool.Get(d); err != nil {
		return nil, nil, err
	}
	return pool, ses, nil
}

// giveBack returns a session taken by session to its pool, or discards it
// when poisoned (its solve failed or panicked), so no later request
// inherits what a failed solve left behind.
func giveBack(pool *cosim.Pool, ses *cosim.Session, poisoned bool) {
	if poisoned {
		pool.Discard(ses)
	} else {
		pool.Put(ses)
	}
}

// poolStats sums the counters of every session pool.
func (s *Server) poolStats() cosim.PoolStats {
	s.poolsMu.Lock()
	defer s.poolsMu.Unlock()
	var sum cosim.PoolStats
	for _, p := range s.pools {
		st := p.Stats()
		sum.Builds += st.Builds
		sum.Reuses += st.Reuses
		sum.Evictions += st.Evictions
		sum.Idle += st.Idle
	}
	return sum
}

// closePools closes every session pool, releasing its sessions' worker
// teams. The pools stay, so their counters still reach Stats.
func (s *Server) closePools() {
	s.poolsMu.Lock()
	defer s.poolsMu.Unlock()
	for _, p := range s.pools {
		p.Close()
	}
}

// Snapshot returns the current Stats.
func (s *Server) Snapshot() Stats {
	pools := s.poolStats()
	return Stats{
		SteadyRequests: s.stats.steadyRequests.Load(),
		MemoHits:       s.stats.memoHits.Load(),
		MemoMisses:     s.stats.memoMisses.Load(),
		SessionReuses:  pools.Reuses,
		SessionBuilds:  pools.Builds,
		Evictions:      pools.Evictions,
		Rejected:       s.stats.rejected.Load(),
		TransientSteps: s.stats.transientSteps.Load(),
		ExperimentRuns: s.stats.experimentRuns.Load(),
		InFlight:       s.stats.inFlight.Load(),

		PanicsRecovered:          s.stats.panicsRecovered.Load(),
		StepsDeduped:             s.stats.stepsDeduped.Load(),
		BreakerTrips:             s.breakers.trips.Load(),
		Breakers:                 s.breakers.snapshot(),
		CheckpointSaves:          s.stats.checkpointSaves.Load(),
		CheckpointBladesRestored: s.stats.checkpointRestored.Load(),

		Sessions:   pools.Idle,
		Transients: s.trans.len(),
		Draining:   s.draining.Load(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// maxBodyBytes caps request bodies.
const maxBodyBytes = 1 << 20

// decode parses a JSON request body holding exactly one JSON value into
// dst with unknown fields rejected. An empty body leaves dst zero when
// allowEmpty is set — the convention for "all defaults" POSTs. On failure
// it writes the error response and returns false: 413 for a body over
// maxBodyBytes, 400 for a malformed, truncated or trailing value.
func decode(w http.ResponseWriter, r *http.Request, dst any, allowEmpty bool) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var tooBig *http.MaxBytesError
	err := dec.Decode(dst)
	if allowEmpty && errors.Is(err, io.EOF) {
		return true
	}
	if err == nil {
		if err = dec.Decode(&json.RawMessage{}); errors.Is(err, io.EOF) {
			return true
		}
		if !errors.As(err, &tooBig) {
			err = errors.New("data after the JSON value")
		}
	}
	status := http.StatusBadRequest
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "bad request body: "+err.Error())
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

// writeError renders a JSON error. An optional positive retryAfterSecs
// sets the Retry-After header — every backpressure refusal derives it
// from the same Server.retryAfterSecs hint (or the breaker's cooldown).
func writeError(w http.ResponseWriter, status int, msg string, retryAfterSecs ...int) {
	if len(retryAfterSecs) > 0 && retryAfterSecs[0] > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs[0]))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(b)
	w.Write([]byte("\n"))
}
