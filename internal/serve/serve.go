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
//   - A session-lease manager (lease.go): a sharded LRU cache of warm
//     cosim.Sessions keyed by (floorplan, mapping, solver, resolution,
//     fault). Leases serialize solves per session (sessions are not
//     concurrency-safe), reuse is counted, and eviction/drain close the
//     session through the idempotent Session.Close contract. Solve
//     failures evict the lease — the PR 8 warm-start-invalidation rule
//     lifted to the cache: a poisoned session never serves another
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
//     retires every cached session and registered transient blade.
//
// Determinism contract: every solve seeds exactly like a fresh-session
// solve (cached sessions never carry a warm start across requests), so a
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
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/thermal"
)

// Config parameterizes a Server. The zero value is usable: coarse
// resolution, the CG solver, an auto-split core budget, and default cache
// and queue capacities.
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
	// QueueDepth bounds how many admitted requests may wait for a solve
	// slot before new ones are refused with 429 (0 = 2×Workers).
	QueueDepth int
	// Sessions caps the lease cache (0 = 64 sessions).
	Sessions int
	// MemoEntries caps the response memo (0 = 4096 bodies).
	MemoEntries int
	// Transients caps concurrently registered transient blades (0 = 16).
	Transients int
	// MaxSteps caps the steps of one transient chunk (0 = 10000).
	MaxSteps int
	// RequestTimeout bounds each request's solve (0 = no limit). The
	// deadline threads through the ctx-aware solve loops, so a timed-out
	// solve aborts between coupling iterations.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = 1 MiB).
	MaxBodyBytes int64
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
	// BreakerThreshold is the consecutive bad solve outcomes (hard
	// failures or escalation-ladder rescues) that trip a proposal class's
	// circuit breaker (0 = 3); BreakerCooldown is how long a tripped
	// breaker refuses with 503 before half-open probing (0 = 5 s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (c Config) withDefaults() Config {
	rc := experiments.RunConfig{Workers: c.Workers, Threads: c.Threads}.
		SplitBudget(runtime.GOMAXPROCS(0))
	c.Workers, c.Threads = rc.Workers, rc.Threads
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.Sessions <= 0 {
		c.Sessions = 64
	}
	if c.MemoEntries <= 0 {
		c.MemoEntries = 4096
	}
	if c.Transients <= 0 {
		c.Transients = 16
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 10000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// Stats is the server's observability snapshot (GET /v1/stats). Counters
// are cumulative since start; gauges are instantaneous.
type Stats struct {
	SteadyRequests int64 `json:"steady_requests"`
	MemoHits       int64 `json:"memo_hits"`
	MemoMisses     int64 `json:"memo_misses"`
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
	sessionReuses  atomic.Int64
	sessionBuilds  atomic.Int64
	evictions      atomic.Int64
	rejected       atomic.Int64
	transientSteps atomic.Int64
	experimentRuns atomic.Int64
	inFlight       atomic.Int64

	panicsRecovered    atomic.Int64
	stepsDeduped       atomic.Int64
	checkpointSaves    atomic.Int64
	checkpointRestored atomic.Int64
}

// Server owns the lease cache, the response memo, the transient-blade
// registry and the admission queue. Create one with New, mount Handler on
// an http.Server, and on shutdown call BeginDrain, then
// http.Server.Shutdown, then Close.
type Server struct {
	cfg      Config
	leases   *leaseCache
	memo     *memo
	flights  *flights
	trans    *transients
	adm      *admission
	breakers *breakerSet
	stats    counters
	draining atomic.Bool
	closed   atomic.Bool
	// dieBlocks is the valid block-name set of the served floorplan, for
	// request validation before any system is built.
	dieBlocks map[string]bool

	// solve runs one proposal on a locked lease. New sets it to
	// solveSteady; it is the one seam tests wrap to inject solver faults.
	solve func(context.Context, *lease, *steadyProposal) (*SteadyResponse, error)

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
		memo:     newMemo(cfg.MemoEntries),
		flights:  newFlights(),
		adm:      newAdmission(cfg.Workers, cfg.QueueDepth),
		breakers: newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	s.solve = s.solveSteady
	s.leases = newLeaseCache(cfg.Sessions, s.buildLease, &s.stats)
	s.trans = newTransients(cfg.Transients)
	fp := floorplan.BroadwellEP()
	s.dieBlocks = make(map[string]bool, len(fp.Blocks))
	for _, b := range fp.Blocks {
		s.dieBlocks[b.Name] = true
	}
	if cfg.RestoreOnStart && cfg.CheckpointPath != "" {
		if _, err := s.RestoreCheckpoint(); err != nil {
			s.trans.closeAll()
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

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains (if not already draining) and retires every cached solve
// session and registered transient blade, releasing their worker teams.
// Close is idempotent and must run after http.Server.Shutdown has
// returned, so no handler still holds a lease; a lease that *is* still
// referenced is marked dead and closed by its releaser — the race the
// idempotent Session.Close contract exists for.
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
	s.leases.closeAll()
	return saveErr
}

// Snapshot returns the current Stats.
func (s *Server) Snapshot() Stats {
	return Stats{
		SteadyRequests: s.stats.steadyRequests.Load(),
		MemoHits:       s.stats.memoHits.Load(),
		MemoMisses:     s.stats.memoMisses.Load(),
		SessionReuses:  s.stats.sessionReuses.Load(),
		SessionBuilds:  s.stats.sessionBuilds.Load(),
		Evictions:      s.stats.evictions.Load(),
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

		Sessions:   s.leases.len(),
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

// decode parses a JSON request body holding exactly one JSON value into
// dst with unknown fields rejected, enforcing the body cap. An empty body
// leaves dst zero when allowEmpty is set — the convention for "all
// defaults" POSTs; a truncated value or trailing data is a bad request.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any, allowEmpty bool) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		if allowEmpty && errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	if err := dec.Decode(&json.RawMessage{}); !errors.Is(err, io.EOF) {
		return errors.New("bad request body: data after the JSON value")
	}
	return nil
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
