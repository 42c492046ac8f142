package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// newTestServer builds a coarse-resolution server sized for tests.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// post issues a JSON POST against a handler and returns the recorder.
func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestSteadyBasics(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	w := post(t, h, "/v1/steady", `{"benchmark":"x264"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("steady: %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	var resp SteadyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.DieMaxC <= resp.Proposal.WaterC {
		t.Fatalf("die max %.1f not above water %.1f", resp.DieMaxC, resp.Proposal.WaterC)
	}
	if resp.TCaseC >= resp.DieMaxC {
		t.Fatalf("tcase %.1f should sit below die max %.1f", resp.TCaseC, resp.DieMaxC)
	}
	if len(resp.Blocks) == 0 {
		t.Fatal("no per-block temperatures")
	}
	if resp.TotalPowerW <= 0 || resp.Cooling.PUE <= 1 {
		t.Fatalf("power %.1f, PUE %.3f", resp.TotalPowerW, resp.Cooling.PUE)
	}
	// Defaults echoed in the normalized proposal.
	p := resp.Proposal
	if p.Cores != 8 || p.FreqGHz != 3.2 || p.Idle != "POLL" || len(p.ActiveCores) != 8 {
		t.Fatalf("unexpected normalized proposal: %+v", p)
	}

	// The identical proposal answers from the memo.
	w2 := post(t, h, "/v1/steady", `{"benchmark":"x264"}`)
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("hit body differs from miss body")
	}
	// A differently-spelled identical proposal (explicit defaults) shares
	// the cache line.
	w3 := post(t, h, "/v1/steady",
		`{"benchmark":"x264","cores":8,"threads":8,"freq_ghz":3.2,"idle":"POLL","active_cores":[7,6,5,4,3,2,1,0],"water_c":30,"water_flow_kgh":7}`)
	if got := w3.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("normalized respelling X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(w.Body.Bytes(), w3.Body.Bytes()) {
		t.Fatal("respelled proposal body differs")
	}
}

func TestSteadyExplicitPowerAndFaults(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	w := post(t, h, "/v1/steady", `{"block_power_w":{"Core1":12,"Core2":12,"LLC":8},"water_c":30,"water_flow_kgh":7}`)
	if w.Code != http.StatusOK {
		t.Fatalf("explicit power: %d %s", w.Code, w.Body)
	}
	var base SteadyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &base); err != nil {
		t.Fatal(err)
	}

	// A pump fault derates flow and must run hotter (or at least not
	// cooler) than the healthy solve.
	wf := post(t, h, "/v1/steady", `{"block_power_w":{"Core1":12,"Core2":12,"LLC":8},"water_c":30,"water_flow_kgh":7,"fault":"pump:0.5"}`)
	if wf.Code != http.StatusOK {
		t.Fatalf("faulted: %d %s", wf.Code, wf.Body)
	}
	var faulted SteadyResponse
	if err := json.Unmarshal(wf.Body.Bytes(), &faulted); err != nil {
		t.Fatal(err)
	}
	if faulted.FlowKgHUsed >= base.FlowKgHUsed {
		t.Fatalf("pump:0.5 flow %.2f should derate below %.2f", faulted.FlowKgHUsed, base.FlowKgHUsed)
	}
	if faulted.DieMaxC < base.DieMaxC {
		t.Fatalf("faulted die %.2f cooler than healthy %.2f", faulted.DieMaxC, base.DieMaxC)
	}
}

func TestSteadyRejectsBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"unknown benchmark", `{"benchmark":"doom"}`},
		{"both power sources", `{"benchmark":"x264","block_power_w":{"Core1":5}}`},
		{"unknown block", `{"block_power_w":{"warpcore":5}}`},
		{"negative power", `{"block_power_w":{"Core1":-5}}`},
		{"bad freq", `{"benchmark":"x264","freq_ghz":4.5}`},
		{"bad idle", `{"benchmark":"x264","idle":"C9"}`},
		{"dup cores", `{"benchmark":"x264","cores":2,"threads":2,"active_cores":[3,3]}`},
		{"core range", `{"benchmark":"x264","cores":1,"threads":1,"active_cores":[9]}`},
		{"bad fault", `{"benchmark":"x264","fault":"gremlin:0.5"}`},
		{"bad solver", `{"benchmark":"x264","solver":"gauss"}`},
		{"removed solver", `{"benchmark":"x264","solver":"mgpcg32"}`},
		{"bad resolution", `{"benchmark":"x264","resolution":"ultra"}`},
		{"unknown field", `{"benchmark":"x264","turbo":true}`},
		{"bad water", `{"benchmark":"x264","water_c":-5,"water_flow_kgh":7}`},
	}
	for _, c := range cases {
		if w := post(t, h, "/v1/steady", c.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400 (%s)", c.name, w.Code, w.Body)
		}
	}
	if w := get(t, h, "/v1/steady"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET steady: got %d, want 405", w.Code)
	}
}

// TestSteadyConcurrentDeterminism is the service-level byte-determinism
// contract: concurrent clients asking the same question get byte-identical
// bodies, a recompute after memo eviction matches, and a fresh server
// matches too.
func TestSteadyConcurrentDeterminism(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	body := `{"benchmark":"streamcluster","cores":4,"threads":4,"freq_ghz":2.6,"idle":"C6"}`

	const clients = 8
	results := make([][]byte, clients)
	done := make(chan int, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			w := post(t, h, "/v1/steady", body)
			if w.Code == http.StatusOK {
				results[i] = w.Body.Bytes()
			}
			done <- i
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-done
	}
	for i := 1; i < clients; i++ {
		if results[i] == nil || !bytes.Equal(results[0], results[i]) {
			t.Fatalf("client %d body differs from client 0", i)
		}
	}
	// Exactly one solve happened: the racers collapsed onto the memo.
	if st := s.Snapshot(); st.MemoMisses != 1 {
		t.Fatalf("%d misses for %d identical concurrent clients, want 1", st.MemoMisses, clients)
	}

	// Recompute after memo eviction: byte-identical (warm-carry is off by
	// default, so the session seeds like a fresh one).
	s.memo.reset()
	w := post(t, h, "/v1/steady", body)
	if got := w.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("post-reset X-Cache = %q, want miss", got)
	}
	if !bytes.Equal(results[0], w.Body.Bytes()) {
		t.Fatal("recomputed body differs from original")
	}

	// A fresh server answers byte-identically.
	s2 := newTestServer(t, Config{})
	w2 := post(t, s2.Handler(), "/v1/steady", body)
	if !bytes.Equal(results[0], w2.Body.Bytes()) {
		t.Fatal("fresh-server body differs")
	}
}

// TestSteadyBackpressure drives the admission queue to refusal: with every
// solve slot held and the wait queue full, a new proposal is refused with
// 429 + Retry-After instead of queueing unboundedly.
func TestSteadyBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Threads: 1, QueueDepth: 1})
	h := s.Handler()

	// Hold the only solve slot directly.
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer release()

	// Fill the single queue slot with a request that waits on a
	// cancellable context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/steady",
			strings.NewReader(`{"benchmark":"x264"}`)).WithContext(ctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		queued <- w.Code
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.waiting.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never started waiting")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the next distinct proposal is refused.
	w := post(t, h, "/v1/steady", `{"benchmark":"canneal"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overload: got %d, want 429 (%s)", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if st := s.Snapshot(); st.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", st.Rejected)
	}

	cancel()
	if code := <-queued; code == http.StatusOK {
		t.Fatal("cancelled queued request reported 200")
	}
}

func TestLeaseEviction(t *testing.T) {
	s := newTestServer(t, Config{Sessions: 1})
	h := s.Handler()
	// Distinct benchmarks are distinct lease keys; push enough through a
	// 1-per-shard cache to force evictions.
	for _, b := range []string{"blackscholes", "bodytrack", "canneal", "dedup", "facesim",
		"ferret", "fluidanimate", "freqmine", "raytrace", "streamcluster", "swaptions", "vips", "x264"} {
		w := post(t, h, "/v1/steady", fmt.Sprintf(`{"benchmark":%q}`, b))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", b, w.Code, w.Body)
		}
	}
	st := s.Snapshot()
	if st.Evictions == 0 {
		t.Fatal("13 distinct keys through a 1-session-per-shard cache evicted nothing")
	}
	if st.Sessions > leaseShardCount {
		t.Fatalf("%d sessions cached, cap is %d", st.Sessions, leaseShardCount)
	}
	// Every evicted key still answers (rebuilt), and the memo still hits.
	w := post(t, h, "/v1/steady", `{"benchmark":"blackscholes"}`)
	if got := w.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("memo should outlive lease eviction, got X-Cache=%q", got)
	}
}

func TestTransientLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	w := post(t, h, "/v1/transient", `{"blade":"b0","benchmark":"x264"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	var st TransientStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Blade != "b0" || st.TimeS != 0 || st.BasePowerW <= 0 {
		t.Fatalf("register status: %+v", st)
	}
	if w := post(t, h, "/v1/transient", `{"blade":"b0","benchmark":"x264"}`); w.Code != http.StatusConflict {
		t.Fatalf("duplicate register: %d, want 409", w.Code)
	}

	// Advance a chunk; time accumulates across chunks.
	w = post(t, h, "/v1/transient/b0/step", `{"dt_s":0.1,"steps":[{},{},{},{},{}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("step: %d %s", w.Code, w.Body)
	}
	var out struct {
		Samples []TransientSample `json:"samples"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 5 {
		t.Fatalf("%d samples, want 5", len(out.Samples))
	}
	last := out.Samples[4]
	if last.TimeS < 0.5-1e-9 {
		t.Fatalf("time %.3f after 5×0.1 s", last.TimeS)
	}
	if last.DieMaxC <= 30 {
		t.Fatalf("die %.1f did not heat from the 30 °C start", last.DieMaxC)
	}
	// A second chunk continues the same state.
	w = post(t, h, "/v1/transient/b0/step", `{"dt_s":0.1,"steps":[{"load":0.5}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("chunk 2: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Samples[0].TimeS < 0.6-1e-9 {
		t.Fatalf("time %.3f did not persist across chunks", out.Samples[0].TimeS)
	}

	if w := get(t, h, "/v1/transient/b0"); w.Code != http.StatusOK {
		t.Fatalf("status: %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodDelete, "/v1/transient/b0", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("release: %d %s", rw.Code, rw.Body)
	}
	if w := get(t, h, "/v1/transient/b0"); w.Code != http.StatusNotFound {
		t.Fatalf("status after release: %d, want 404", w.Code)
	}
	if w := post(t, h, "/v1/transient/b0/step", `{"dt_s":0.1,"steps":[{}]}`); w.Code != http.StatusNotFound {
		t.Fatalf("step after release: %d, want 404", w.Code)
	}
}

func TestTransientValidation(t *testing.T) {
	s := newTestServer(t, Config{Transients: 1, MaxSteps: 4})
	h := s.Handler()
	if w := post(t, h, "/v1/transient", `{"benchmark":"x264"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("nameless register: %d, want 400", w.Code)
	}
	if w := post(t, h, "/v1/transient", `{"blade":"b0","benchmark":"x264"}`); w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	if w := post(t, h, "/v1/transient", `{"blade":"b1","benchmark":"x264"}`); w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity register: %d, want 429", w.Code)
	}
	bad := []struct{ name, body string }{
		{"zero dt", `{"dt_s":0,"steps":[{}]}`},
		{"no steps", `{"dt_s":0.1}`},
		{"chunk too long", `{"dt_s":0.1,"steps":[{},{},{},{},{}]}`},
		{"both sources", `{"dt_s":0.1,"steps":[{"load":1,"block_power_w":{"Core1":5}}]}`},
		{"unknown block", `{"dt_s":0.1,"steps":[{"block_power_w":{"flux":5}}]}`},
		{"negative load", `{"dt_s":0.1,"steps":[{"load":-1}]}`},
	}
	for _, c := range bad {
		if w := post(t, h, "/v1/transient/b0/step", c.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400 (%s)", c.name, w.Code, w.Body)
		}
	}
}

func TestExperimentsEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	w := get(t, h, "/v1/experiments")
	if w.Code != http.StatusOK {
		t.Fatalf("list: %d", w.Code)
	}
	var list struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	names := experiments.Names()
	if len(list.Experiments) != len(names) {
		t.Fatalf("%d experiments listed, registry has %d", len(list.Experiments), len(names))
	}
	for i, e := range list.Experiments {
		if e.Name != names[i] {
			t.Fatalf("order: %q at %d, want %q", e.Name, i, names[i])
		}
	}

	// tablei is solve-free: cheap enough to run end to end.
	w = post(t, h, "/v1/experiments/tablei", "")
	if w.Code != http.StatusOK {
		t.Fatalf("run tablei: %d %s", w.Code, w.Body)
	}
	var result struct {
		Name   string `json:"Name"`
		Tables []struct {
			Rows [][]any `json:"Rows"`
		} `json:"Tables"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &result); err != nil {
		t.Fatalf("result JSON: %v", err)
	}
	if len(result.Tables) == 0 || len(result.Tables[0].Rows) == 0 {
		t.Fatal("tablei result has no table rows")
	}
	if w := post(t, h, "/v1/experiments/atlantis", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown experiment: %d, want 404", w.Code)
	}
	if w := post(t, h, "/v1/experiments/tablei", `{"resolution":"ultra"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad override: %d, want 400", w.Code)
	}
	if st := s.Snapshot(); st.ExperimentRuns != 1 {
		t.Fatalf("experimentRuns = %d, want 1", st.ExperimentRuns)
	}
}

func TestStatsAndHealth(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	post(t, h, "/v1/steady", `{"benchmark":"x264"}`)
	post(t, h, "/v1/steady", `{"benchmark":"x264"}`)
	w := get(t, h, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	}
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.SteadyRequests != 2 || st.MemoHits != 1 || st.MemoMisses != 1 || st.SessionBuilds != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	s.BeginDrain()
	w := post(t, h, "/v1/steady", `{"benchmark":"x264"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining steady: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("drain refusal without Retry-After")
	}
	if w := get(t, h, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", w.Code)
	}
	// Stats stay reachable for the operator watching the drain.
	if w := get(t, h, "/v1/stats"); w.Code != http.StatusOK {
		t.Fatalf("draining stats: %d, want 200", w.Code)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s := newTestServer(t, Config{})
	post(t, s.Handler(), "/v1/steady", `{"benchmark":"x264"}`)
	for i := 0; i < 3; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if got := s.leases.len(); got != 0 {
		t.Fatalf("%d sessions survive Close", got)
	}
}

// TestWarmHitSpeedup is the PR's acceptance gate in miniature: a
// warm-cache hit must be at least 50× faster than a cold miss (full
// system build + cold coupled solve) at medium resolution.
func TestWarmHitSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s := newTestServer(t, Config{Resolution: experiments.Medium})
	h := s.Handler()
	body := `{"benchmark":"x264"}`

	coldest := func() time.Duration {
		s.ResetCaches()
		t0 := time.Now()
		w := post(t, h, "/v1/steady", body)
		if w.Code != http.StatusOK {
			t.Fatalf("cold: %d %s", w.Code, w.Body)
		}
		return time.Since(t0)
	}
	var cold time.Duration
	for i := 0; i < 3; i++ {
		if d := coldest(); cold == 0 || d < cold {
			cold = d
		}
	}
	post(t, h, "/v1/steady", body) // prime
	var hit time.Duration
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		w := post(t, h, "/v1/steady", body)
		if got := w.Header().Get("X-Cache"); got != "hit" {
			t.Fatalf("X-Cache = %q, want hit", got)
		}
		if d := time.Since(t0); hit == 0 || d < hit {
			hit = d
		}
	}
	if ratio := float64(cold) / float64(hit); ratio < 50 {
		t.Fatalf("warm hit only %.1f× faster than cold miss (cold %v, hit %v), want ≥50×", ratio, cold, hit)
	}
}

func TestLoadEngine(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := LoadConfig{
		BaseURL:     ts.URL,
		Requests:    40,
		Concurrency: 4,
		Keys:        4,
		Seed:        7,
	}
	rep, err := RunLoad(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Completed+rep.Dropped+rep.Rejected+rep.Errors != rep.Requests {
		t.Fatalf("accounting: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors: %+v", rep.Errors, rep)
	}
	if rep.Misses > cfg.Keys {
		t.Fatalf("%d misses for a %d-key pool", rep.Misses, cfg.Keys)
	}
	// Same seed, warm server: the key pool is already memoized, so a
	// replay is all hits — the sequence is deterministic.
	rep2, err := RunLoad(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Misses != 0 || rep2.Hits != rep2.Completed {
		t.Fatalf("replay on a warm server should be all hits: %+v", rep2)
	}

	// Zipf skew concentrates on the head of the pool.
	repZ, err := RunLoad(context.Background(), LoadConfig{
		BaseURL: ts.URL, Requests: 40, Concurrency: 4, Keys: 8, Skew: 1.5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if repZ.Errors != 0 {
		t.Fatalf("zipf run errors: %+v", repZ)
	}
}

// drainBody is a helper for reading a real HTTP response.
func drainBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
