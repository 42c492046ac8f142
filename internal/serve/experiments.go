package serve

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/experiments"
	"repro/internal/thermal"
)

// ExperimentInfo is one row of GET /v1/experiments.
type ExperimentInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// ExperimentRunRequest tunes one experiment run; every field defaults to
// the server configuration. An empty body runs the defaults.
type ExperimentRunRequest struct {
	Resolution string `json:"resolution,omitempty"`
	Solver     string `json:"solver,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	Threads    int    `json:"threads,omitempty"`
}

// handleExperimentsList is GET /v1/experiments: the PR 4 registry over
// HTTP, in registration (paper) order.
func (s *Server) handleExperimentsList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	all := experiments.All()
	out := make([]ExperimentInfo, len(all))
	for i, e := range all {
		out[i] = ExperimentInfo{Name: e.Name, Description: e.Description}
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

// handleExperimentRun is POST /v1/experiments/{name}: run one registered
// experiment and return its Result JSON — the same renderer cmd/paperbench
// -format json uses, so scripted consumers parse one schema for both.
func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/v1/experiments/")
	if name == "" || strings.Contains(name, "/") {
		writeError(w, http.StatusNotFound, "want /v1/experiments/{name}")
		return
	}
	exp, ok := experiments.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown experiment %q; GET /v1/experiments lists the catalog", name))
		return
	}
	var req ExperimentRunRequest
	if !decode(w, r, &req, true) {
		return
	}
	cfg := experiments.RunConfig{
		Resolution: s.cfg.Resolution,
		Solver:     s.cfg.Solver,
		Workers:    req.Workers,
		Threads:    req.Threads,
	}
	if req.Resolution != "" {
		res, err := experiments.ParseResolution(req.Resolution)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		cfg.Resolution = res
	}
	if req.Solver != "" {
		sol, err := thermal.ParseSolver(req.Solver)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		cfg.Solver = sol
	}
	// An experiment spawns its own worker pool; one admission token bounds
	// the server to Workers concurrent solve-class requests regardless of
	// what each run does inside its own budget split.
	ctx, cancel := experiments.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	release, err := s.adm.acquire(ctx)
	if err != nil {
		s.rejectSolve(w, err)
		return
	}
	defer release()
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)

	result, err := exp.Run(ctx, cfg)
	if err != nil {
		s.solveError(w, err)
		return
	}
	s.stats.experimentRuns.Add(1)
	body, err := result.JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	w.Write([]byte("\n"))
}
