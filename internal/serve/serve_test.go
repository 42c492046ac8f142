package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
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
		{"fault onset suffix", `{"benchmark":"x264","fault":"pump:0.5@12"}`},
		{"bad solver", `{"benchmark":"x264","solver":"gauss"}`},
		{"removed solver", `{"benchmark":"x264","solver":"mgpcg32"}`},
		{"bad resolution", `{"benchmark":"x264","resolution":"ultra"}`},
		{"unknown field", `{"benchmark":"x264","turbo":true}`},
		{"bad water", `{"benchmark":"x264","water_c":-5,"water_flow_kgh":7}`},
		{"overflowing flow", `{"benchmark":"x264","water_c":30,"water_flow_kgh":1e20}`},
		{"overflowing power", `{"block_power_w":{"Core1":1e300}}`},
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

// TestDecodeBodies: a request body is empty (where the endpoint allows
// it) or exactly one JSON value; a truncated value or trailing data is a
// 400, never a silent run on defaults or on the first value.
func TestDecodeBodies(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"empty defaults", "/v1/experiments/tablei", "", http.StatusOK},
		{"one value, trailing space", "/v1/experiments/tablei", "{\"resolution\":\"coarse\"}\n ", http.StatusOK},
		{"truncated value", "/v1/experiments/tablei", `{"resolution":"full"`, http.StatusBadRequest},
		{"two values", "/v1/experiments/tablei", `{}{}`, http.StatusBadRequest},
		{"empty where a value is required", "/v1/steady", "", http.StatusBadRequest},
		{"one proposal", "/v1/steady", `{"benchmark":"x264"}`, http.StatusOK},
		{"trailing junk", "/v1/steady", `{"benchmark":"x264"}{"junk"`, http.StatusBadRequest},
		{"trailing value", "/v1/steady", `{"benchmark":"x264"} 7`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := post(t, h, c.path, c.body); w.Code != c.want {
			t.Errorf("%s: POST %s %q = %d, want %d (%s)", c.name, c.path, c.body, w.Code, c.want, w.Body)
		}
	}
}

// TestBodyCap: a body of exactly maxBodyBytes is read in full, and one
// byte more answers 413 whether the excess is inside the JSON value or
// trailing it.
func TestBodyCap(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	const value = `{"benchmark":"x264"}`
	pad := func(n int) string { return value + strings.Repeat(" ", n-len(value)) }
	if w := post(t, h, "/v1/steady", pad(maxBodyBytes)); w.Code != http.StatusOK {
		t.Fatalf("body of exactly the cap: %d %s", w.Code, w.Body)
	}
	long := `{"benchmark":"` + strings.Repeat("x", maxBodyBytes+1-len(`{"benchmark":""}`)) + `"}`
	for name, body := range map[string]string{"trailing": pad(maxBodyBytes + 1), "inside the value": long} {
		if len(body) != maxBodyBytes+1 {
			t.Fatalf("%s: body is %d bytes, want %d", name, len(body), maxBodyBytes+1)
		}
		if w := post(t, h, "/v1/steady", body); w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: over-cap body answered %d, want 413 (%s)", name, w.Code, w.Body)
		}
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

	// Recompute after memo eviction: byte-identical (cached sessions never
	// carry a warm start, so the session seeds like a fresh one).
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
	s := newTestServer(t, Config{Workers: 1, Threads: 1})
	s.adm = newAdmission(1, 1)
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

// parsecBenchmarks are the 13 PARSEC workloads; with two idle states
// they make 26 distinct mappings.
var parsecBenchmarks = []string{"blackscholes", "bodytrack", "canneal", "dedup", "facesim",
	"ferret", "fluidanimate", "freqmine", "raytrace", "streamcluster", "swaptions", "vips", "x264"}

// postAll posts every body through conc concurrent clients and returns
// the response bodies in order; any non-200 fails the test.
func postAll(t *testing.T, h http.Handler, bodies []string, conc int) [][]byte {
	t.Helper()
	out := make([][]byte, len(bodies))
	errs := make(chan error, conc)
	for c := 0; c < conc; c++ {
		go func(c int) {
			for i := c; i < len(bodies); i += conc {
				w := post(t, h, "/v1/steady", bodies[i])
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("%s: %d %s", bodies[i], w.Code, w.Body)
					return
				}
				out[i] = w.Body.Bytes()
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < conc; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestPoolBoundsSessions: 26 distinct mappings, and the 13 benchmarks
// again under a pump fault, solve on one (solver, resolution) pool with
// one design, because a pump fault derates only the water flow. So a
// two-worker server builds at most two sessions and keeps at most two
// idle, however many mappings it has seen.
func TestPoolBoundsSessions(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, Threads: 1})
	var bodies []string
	for _, idle := range []string{"POLL", "C6"} {
		for _, b := range parsecBenchmarks {
			bodies = append(bodies, fmt.Sprintf(`{"benchmark":%q,"idle":%q}`, b, idle))
		}
	}
	for _, b := range parsecBenchmarks {
		bodies = append(bodies, fmt.Sprintf(`{"benchmark":%q,"fault":"pump:0.5"}`, b))
	}
	postAll(t, s.Handler(), bodies, 2)
	st := s.Snapshot()
	n := int64(len(bodies))
	if st.MemoMisses != n {
		t.Fatalf("%d misses for %d distinct proposals", st.MemoMisses, n)
	}
	if st.SessionBuilds > 2 || st.Sessions > 2 {
		t.Fatalf("%d proposals through 2 workers: %d session builds, %d idle sessions; want at most 2 each",
			n, st.SessionBuilds, st.Sessions)
	}
	if st.SessionBuilds+st.SessionReuses != n || st.Evictions != 0 {
		t.Fatalf("%d builds + %d reuses for %d solves, %d evictions", st.SessionBuilds, st.SessionReuses, n, st.Evictions)
	}
}

// idleCap is cosim's cap on the idle sessions of one pool.
const idleCap = 64

// TestPoolEvictsLeastRecentlyUsed: every design-changing fault gets
// sessions of its own on the one pool, so distinct faults beyond the
// pool's idle cap evict the oldest idle session, the idle sessions stay
// at the cap, and an evicted class answers byte-identically when it is
// solved again. A pump fault changes no design and reuses the healthy
// session.
func TestPoolEvictsLeastRecentlyUsed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	steady := func(fault string) []byte {
		t.Helper()
		w := post(t, h, "/v1/steady", fmt.Sprintf(`{"benchmark":"x264","fault":%q}`, fault))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", fault, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	fouling := func(i int) string { return fmt.Sprintf("fouling:%.3f", 0.005*float64(i+1)) }
	steady("")
	steady("pump:0.5")
	if st := s.Snapshot(); st.SessionBuilds != 1 || st.SessionReuses != 1 {
		t.Fatalf("healthy then pump:0.5: %d builds, %d reuses; want 1, 1", st.SessionBuilds, st.SessionReuses)
	}
	first := steady(fouling(0))
	for i := 1; i < idleCap; i++ {
		steady(fouling(i))
		if n := s.Snapshot().Sessions; n > idleCap {
			t.Fatalf("after %s: %d idle sessions, cap is %d", fouling(i), n, idleCap)
		}
	}
	// 1 + idleCap designs: the healthy session, the oldest idle one, went.
	st := s.Snapshot()
	if st.Evictions != 1 || st.SessionBuilds != 1+idleCap || st.Sessions != idleCap {
		t.Fatalf("%d designs through a %d-session cap: %d evictions, %d builds, %d idle; want 1, %d, %d",
			1+idleCap, idleCap, st.Evictions, st.SessionBuilds, st.Sessions, 1+idleCap, idleCap)
	}
	// The memo outlives the evicted session.
	healthy := post(t, h, "/v1/steady", `{"benchmark":"x264"}`)
	if got := healthy.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("memo should outlive session eviction, got X-Cache=%q", got)
	}
	// The oldest fault's session is idle still, and reused.
	s.memo.reset()
	if got := steady(fouling(0)); !bytes.Equal(first, got) {
		t.Fatalf("a reused session answered differently:\nfirst %s\nagain %s", first, got)
	}
	if st := s.Snapshot(); st.SessionReuses != 2 || st.SessionBuilds != 1+idleCap {
		t.Fatalf("re-solving an idle design: %d reuses, %d builds; want 2, %d", st.SessionReuses, st.SessionBuilds, 1+idleCap)
	}
	// A recompute of the evicted class on a fresh session matches a
	// fresh server; the rebuild evicts the now oldest idle session.
	fresh := newTestServer(t, Config{Workers: 1}).Handler()
	if got, want := steady(""), post(t, fresh, "/v1/steady", `{"benchmark":"x264"}`).Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("evicted class recomputed differently:\ngot  %s\nwant %s", got, want)
	}
	if st := s.Snapshot(); st.SessionBuilds != 2+idleCap || st.Evictions != 2 || st.Sessions != idleCap {
		t.Fatalf("re-solving an evicted design: %d builds, %d evictions, %d idle; want %d, 2, %d",
			st.SessionBuilds, st.Evictions, st.Sessions, 2+idleCap, idleCap)
	}
	// Transient registrations borrow sessions from the same pool, under
	// the same cap.
	for i, f := range []string{"htc:0.1", "htc:0.2", "htc:0.3"} {
		if w := post(t, h, "/v1/transient", fmt.Sprintf(`{"blade":"b%d","benchmark":"x264","fault":%q}`, i, f)); w.Code != http.StatusCreated {
			t.Fatalf("register %s: %d %s", f, w.Code, w.Body)
		}
	}
	if st := s.Snapshot(); st.Sessions != idleCap || st.Evictions != 5 {
		t.Fatalf("after 3 faulted registrations: %d idle, %d evictions; want %d, 5", st.Sessions, st.Evictions, idleCap)
	}
}

// TestFaultsShareOneSystem: eight distinct design-changing faults at
// medium build one System, on which each design gets a session of its
// own, and each faulted body matches a server that saw only that fault.
func TestFaultsShareOneSystem(t *testing.T) {
	cfg := Config{Resolution: experiments.Medium, Workers: 1, Threads: 1}
	s := newTestServer(t, cfg)
	h := s.Handler()
	faults := []string{"fouling:0.2", "fouling:0.4", "dryout:0.2", "dryout:0.4", "htc:0.2", "htc:0.4",
		"dryout:0.3,fouling:0.3", "pump:0.5,htc:0.3"}
	for i, f := range faults {
		body := fmt.Sprintf(`{"benchmark":"x264","fault":%q}`, f)
		w := post(t, h, "/v1/steady", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", f, w.Code, w.Body)
		}
		if i%3 == 0 {
			solo := newTestServer(t, cfg).Handler()
			if want := post(t, solo, "/v1/steady", body).Body.Bytes(); !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("%s on the shared System differs from a solo server:\nshared %s\nsolo   %s", f, w.Body, want)
			}
		}
	}
	s.poolsMu.Lock()
	systems := len(s.pools)
	s.poolsMu.Unlock()
	if st := s.Snapshot(); systems != 1 || st.SessionBuilds != int64(len(faults)) || st.Evictions != 0 {
		t.Fatalf("%d design-changing faults at medium: %d Systems, %d session builds, %d evictions; want 1, %d, 0",
			len(faults), systems, st.SessionBuilds, st.Evictions, len(faults))
	}
}

// TestAnswersIndependentOfOrder: a cold solve starts from its System's
// reference flux, which the first cold solve computes. Two servers, one
// answering A, B and a faulted C, the other C first (so a session with a
// derated design computes the reference), then B and A, give
// byte-identical bodies.
func TestAnswersIndependentOfOrder(t *testing.T) {
	bodies := []string{
		`{"benchmark":"x264"}`,
		`{"benchmark":"canneal","cores":4,"threads":8,"idle":"C6","water_c":25,"water_flow_kgh":9}`,
		`{"benchmark":"ferret","fault":"fouling:0.5,dryout:0.3"}`,
	}
	answer := func(order []int) [][]byte {
		h := newTestServer(t, Config{Workers: 1, Threads: 1}).Handler()
		out := make([][]byte, len(bodies))
		for _, i := range order {
			w := post(t, h, "/v1/steady", bodies[i])
			if w.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", bodies[i], w.Code, w.Body)
			}
			out[i] = w.Body.Bytes()
		}
		return out
	}
	fwd, rev := answer([]int{0, 1, 2}), answer([]int{2, 1, 0})
	for i, body := range bodies {
		if !bytes.Equal(fwd[i], rev[i]) {
			t.Fatalf("%s: answered first-to-last and last-to-first, the bodies differ:\n%s\n%s", body, fwd[i], rev[i])
		}
	}
}

// TestPooledSessionsMatchFreshServers: distinct proposals solved
// concurrently on the pooled sessions of one shared System answer
// byte-identically to one request per fresh Server. Run it under -race:
// the sessions share the System's read-only model.
func TestPooledSessionsMatchFreshServers(t *testing.T) {
	bodies := []string{
		`{"benchmark":"x264"}`,
		`{"benchmark":"canneal","cores":4,"threads":8,"idle":"C6"}`,
		`{"benchmark":"ferret","freq_ghz":2.6,"active_cores":[0,2,5,7],"cores":4}`,
		`{"benchmark":"vips","water_c":25,"water_flow_kgh":9}`,
		`{"block_power_w":{"Core1":12,"LLC":9}}`,
		`{"benchmark":"dedup","cores":2,"idle":"C1E"}`,
	}
	s := newTestServer(t, Config{Workers: 2, Threads: 1})
	pooled := postAll(t, s.Handler(), bodies, 2)
	if st := s.Snapshot(); st.SessionBuilds > 2 || st.SessionReuses == 0 {
		t.Fatalf("%d builds, %d reuses: the proposals did not share pooled sessions", st.SessionBuilds, st.SessionReuses)
	}
	for i, body := range bodies {
		fresh := newTestServer(t, Config{Workers: 1, Threads: 1})
		w := post(t, fresh.Handler(), "/v1/steady", body)
		if w.Code != http.StatusOK || !bytes.Equal(pooled[i], w.Body.Bytes()) {
			t.Fatalf("%s: pooled body differs from a fresh server's (%d):\npooled %s\nfresh  %s", body, w.Code, pooled[i], w.Body)
		}
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
	s := newTestServer(t, Config{})
	s.trans.cap = 1
	s.maxSteps = 4
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

// TestStepKeepsClockMoving: a chunk whose dt_s would overflow the blade
// clock, or vanish against it, is refused whole and leaves time_s where
// it was; the blade keeps stepping afterwards.
// TestTransientRegisterValidatesFields: a registration must name a blade
// the /v1/transient/{blade} routes can reach and start it at a
// temperature in range. Refused registrations occupy no registry slot;
// names that are awkward but single path segments, and both ends of the
// temperature range, register, step and release at their path-escaped
// names.
func TestTransientRegisterValidatesFields(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, body := range []string{
		`{"blade":"a/b","benchmark":"x264"}`,
		`{"blade":"/","benchmark":"x264"}`,
		`{"blade":"b0/step","benchmark":"x264"}`,
		`{"blade":".","benchmark":"x264"}`,
		`{"blade":"..","benchmark":"x264"}`,
		`{"blade":"b0","benchmark":"x264","initial_c":-500}`,
		`{"blade":"b0","benchmark":"x264","initial_c":-56}`,
		`{"blade":"b0","benchmark":"x264","initial_c":151}`,
		`{"blade":"b0","benchmark":"x264","initial_c":1e200}`,
	} {
		if w := post(t, h, "/v1/transient", body); w.Code != http.StatusBadRequest {
			t.Errorf("register %s: %d, want 400 (%s)", body, w.Code, w.Body)
		}
	}
	if n := s.trans.len(); n != 0 {
		t.Fatalf("refused registrations hold %d registry slot(s)", n)
	}
	for _, c := range []struct {
		blade    string
		initialC float64
	}{{"...", -55}, {"b 0?#%", 150}} {
		body, err := json.Marshal(TransientRegisterRequest{Blade: c.blade, InitialC: c.initialC,
			SteadyRequest: SteadyRequest{Benchmark: "x264"}})
		if err != nil {
			t.Fatal(err)
		}
		if w := post(t, h, "/v1/transient", string(body)); w.Code != http.StatusCreated {
			t.Fatalf("register %s: %d %s", body, w.Code, w.Body)
		}
		path := "/v1/transient/" + url.PathEscape(c.blade)
		if w := get(t, h, path); w.Code != http.StatusOK {
			t.Errorf("GET %s: %d %s", path, w.Code, w.Body)
		}
		if w := post(t, h, path+"/step", `{"dt_s":0.1,"steps":[{}]}`); w.Code != http.StatusOK {
			t.Errorf("step %s: %d %s", path, w.Code, w.Body)
		}
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodDelete, path, nil))
		if rw.Code != http.StatusOK {
			t.Errorf("DELETE %s: %d %s", path, rw.Code, rw.Body)
		}
	}
}

func TestStepKeepsClockMoving(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if w := post(t, h, "/v1/transient", `{"blade":"b0","benchmark":"x264"}`); w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	timeS := func() float64 {
		w := get(t, h, "/v1/transient/b0")
		var st TransientStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("status %d %s: %v", w.Code, w.Body, err)
		}
		return st.TimeS
	}
	if w := post(t, h, "/v1/transient/b0/step", `{"dt_s":1e308,"steps":[{}]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("1e308 s chunk: %d %s, want 400", w.Code, w.Body)
	}
	if got := timeS(); got != 0 {
		t.Fatalf("time_s after a refused chunk = %g, want 0", got)
	}
	if w := post(t, h, "/v1/transient/b0/step", `{"dt_s":0.25,"steps":[{}]}`); w.Code != http.StatusOK {
		t.Fatalf("step after a refused chunk: %d %s", w.Code, w.Body)
	}
	if w := post(t, h, "/v1/transient/b0/step", `{"dt_s":1e-300,"steps":[{}]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("vanishing dt_s: %d %s, want 400", w.Code, w.Body)
	}
	if got := timeS(); got != 0.25 {
		t.Fatalf("time_s = %g, want 0.25", got)
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
	// The core budget is the server's: a body naming one is refused.
	for _, body := range []string{`{"workers":2}`, `{"threads":2}`} {
		if w := post(t, h, "/v1/experiments/tablei", body); w.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", body, w.Code)
		}
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
	if got := s.Snapshot().Sessions; got != 0 {
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
	cfg := Config{Resolution: experiments.Medium}
	body := `{"benchmark":"x264"}`

	coldest := func() time.Duration {
		h := newTestServer(t, cfg).Handler()
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
	h := newTestServer(t, cfg).Handler()
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
