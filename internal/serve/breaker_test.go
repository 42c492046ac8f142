package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cosim"
	"repro/internal/refrigerant"
)

// TestBreakerStateMachine drives one breaker through the full closed →
// open → half-open → closed cycle on a fake clock.
func TestBreakerStateMachine(t *testing.T) {
	bs := newBreakerSet(3, 5*time.Second)
	clock := time.Unix(1000, 0)
	bs.now = func() time.Time { return clock }
	key := classKey{mapping: "m"}

	// Below the threshold the breaker stays closed.
	for i := 0; i < 2; i++ {
		tok, _ := bs.admit(key)
		if tok == nil {
			t.Fatalf("closed breaker refused at bad=%d", i)
		}
		bs.settle(tok, outcomeBad)
	}
	if st := bs.snapshot(); st.Open != 0 {
		t.Fatalf("opened below threshold: %+v", st)
	}
	// A success resets the consecutive count (and prunes the clean entry).
	tok, _ := bs.admit(key)
	bs.settle(tok, outcomeGood)
	if len(bs.m) != 0 {
		t.Fatalf("clean closed breaker not pruned: %d entries", len(bs.m))
	}

	// Three consecutive bad outcomes trip it.
	for i := 0; i < 3; i++ {
		tok, _ := bs.admit(key)
		bs.settle(tok, outcomeBad)
	}
	if st := bs.snapshot(); st.Open != 1 || len(st.Tripped) != 1 || st.Tripped[0].State != "open" {
		t.Fatalf("not open after threshold: %+v", st)
	}
	if got := bs.trips.Load(); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}

	// While open, admits are refused with the remaining cooldown.
	tok, ra := bs.admit(key)
	if tok != nil || ra != 5 {
		t.Fatalf("open admit = (%v, %d), want (nil, 5)", tok, ra)
	}
	clock = clock.Add(3 * time.Second)
	if tok, ra = bs.admit(key); tok != nil || ra != 2 {
		t.Fatalf("open admit mid-cooldown = (%v, %d), want (nil, 2)", tok, ra)
	}

	// Cooldown over: exactly one probe passes, concurrent callers wait.
	clock = clock.Add(3 * time.Second)
	probe, _ := bs.admit(key)
	if probe == nil || !probe.probe {
		t.Fatalf("half-open probe refused or not marked: %+v", probe)
	}
	if tok, ra = bs.admit(key); tok != nil || ra != 1 {
		t.Fatalf("second half-open caller = (%v, %d), want (nil, 1)", tok, ra)
	}

	// A failed probe re-opens for another cooldown.
	bs.settle(probe, outcomeBad)
	if tok, _ = bs.admit(key); tok != nil {
		t.Fatal("re-opened breaker admitted")
	}
	if got := bs.trips.Load(); got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}

	// A successful probe closes and prunes.
	clock = clock.Add(6 * time.Second)
	if probe, _ = bs.admit(key); probe == nil {
		t.Fatal("second probe refused")
	}
	bs.settle(probe, outcomeGood)
	if tok, _ = bs.admit(key); tok == nil {
		t.Fatal("closed breaker refused after recovery")
	}
	if len(bs.m) != 0 {
		t.Fatalf("recovered breaker not pruned: %d entries", len(bs.m))
	}
}

// TestBreakerProbeNeverLeaks: a probe settled neutrally (the solve never
// ran — admission refusal, lease failure, client cancellation) releases
// the half-open slot so the next caller becomes the probe. Before the
// ticket API an unsettled probe wedged the key in probing state forever,
// refusing every request with 503 until restart.
func TestBreakerProbeNeverLeaks(t *testing.T) {
	bs := newBreakerSet(1, 5*time.Second)
	clock := time.Unix(1000, 0)
	bs.now = func() time.Time { return clock }
	key := classKey{mapping: "m"}

	tok, _ := bs.admit(key)
	bs.settle(tok, outcomeBad) // threshold 1: trips immediately
	clock = clock.Add(6 * time.Second)

	// Probe admitted, then cancelled before the solver ran.
	probe, _ := bs.admit(key)
	if probe == nil {
		t.Fatal("probe refused after cooldown")
	}
	if tok, _ := bs.admit(key); tok != nil {
		t.Fatal("second caller admitted while probe in flight")
	}
	bs.settle(probe, outcomeNeutral)
	// Settle is idempotent: a double settle (defer plus explicit) is a no-op.
	bs.settle(probe, outcomeBad)

	// The slot is free again and the state machine did not move: still
	// half-open, and the next admit becomes the new probe.
	if st := bs.snapshot(); st.HalfOpen != 1 {
		t.Fatalf("neutral probe moved the state machine: %+v", st)
	}
	probe2, _ := bs.admit(key)
	if probe2 == nil || !probe2.probe {
		t.Fatalf("slot not released after neutral settle: %+v", probe2)
	}
	bs.settle(probe2, outcomeGood)
	if tok, _ := bs.admit(key); tok == nil {
		t.Fatal("breaker did not close after the replacement probe succeeded")
	}
	if got := bs.trips.Load(); got != 1 {
		t.Fatalf("trips = %d, want 1 (neutral settles must not count)", got)
	}
}

// TestBreakerIgnoresStaleOutcomes: an outcome from a solve admitted
// before the breaker tripped must not be mistaken for the half-open
// probe's result — a stale success must not close the breaker, a stale
// failure must not re-trip it.
func TestBreakerIgnoresStaleOutcomes(t *testing.T) {
	bs := newBreakerSet(2, 5*time.Second)
	clock := time.Unix(1000, 0)
	bs.now = func() time.Time { return clock }
	key := classKey{mapping: "m"}

	// A slow solve admitted while the breaker is still closed…
	stale, _ := bs.admit(key)
	// …then two fast failures trip the breaker while it is in flight.
	for i := 0; i < 2; i++ {
		tok, _ := bs.admit(key)
		bs.settle(tok, outcomeBad)
	}
	clock = clock.Add(6 * time.Second)
	probe, _ := bs.admit(key)
	if probe == nil {
		t.Fatal("probe refused after cooldown")
	}
	// The stale solve finishes (successfully) while the probe is in
	// flight: it must not clear the probe or close the breaker.
	bs.settle(stale, outcomeGood)
	if st := bs.snapshot(); st.HalfOpen != 1 {
		t.Fatalf("stale success moved the state machine: %+v", st)
	}
	if tok, _ := bs.admit(key); tok != nil {
		t.Fatal("stale success released the in-flight probe's slot")
	}
	// The real probe's failure re-opens; a second stale outcome arriving
	// now (old generation) is ignored too.
	bs.settle(probe, outcomeBad)
	if st := bs.snapshot(); st.Open != 1 {
		t.Fatalf("probe failure did not re-open: %+v", st)
	}
	trips := bs.trips.Load()
	stale2 := &breakerTicket{key: key, gen: 0}
	bs.settle(stale2, outcomeBad)
	if got := bs.trips.Load(); got != trips {
		t.Fatalf("stale failure double-counted: trips %d → %d", trips, got)
	}
}

// TestBreakerTripsOnInjectedFailures drives the integrated path: chaos
// FailRate 1 makes every solve fail, the proposal class's breaker trips
// after the threshold, refusals carry Retry-After, and once the sabotage
// stops a half-open probe closes the breaker again.
func TestBreakerTripsOnInjectedFailures(t *testing.T) {
	old := debugLogWriter
	debugLogWriter = io.Discard
	defer func() { debugLogWriter = old }()

	s := newTestServer(t, Config{})
	s.breakers.cooldown = time.Minute
	clock := time.Unix(2000, 0)
	s.breakers.now = func() time.Time { return clock }
	c, h := armChaos(s, ChaosConfig{Seed: 7, FailRate: 1})

	body := `{"benchmark":"x264"}`
	for i := 0; i < 3; i++ {
		if w := post(t, h, "/v1/steady", body); w.Code != http.StatusInternalServerError {
			t.Fatalf("sabotaged solve %d: %d %s", i, w.Code, w.Body)
		}
	}
	w := post(t, h, "/v1/steady", body)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("tripped breaker: %d, want 503 (%s)", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("breaker 503 missing Retry-After")
	}
	if !strings.Contains(w.Body.String(), "circuit breaker open") {
		t.Fatalf("breaker 503 body: %s", w.Body)
	}
	st := s.Snapshot()
	if st.BreakerTrips != 1 || st.Breakers.Open != 1 {
		t.Fatalf("stats after trip: trips=%d breakers=%+v", st.BreakerTrips, st.Breakers)
	}

	// Stop injecting, pass the cooldown: the next request is the half-open
	// probe, succeeds, and the breaker closes.
	c.disarm()
	clock = clock.Add(2 * time.Minute)
	if w := post(t, h, "/v1/steady", body); w.Code != http.StatusOK {
		t.Fatalf("half-open probe: %d %s", w.Code, w.Body)
	}
	if st := s.Snapshot(); st.Breakers.Open != 0 || st.Breakers.HalfOpen != 0 {
		t.Fatalf("breaker not closed after probe: %+v", st.Breakers)
	}
	if w := post(t, h, "/v1/steady", body); w.Code != http.StatusOK {
		t.Fatalf("recovered class: %d %s", w.Code, w.Body)
	}
}

// TestBreakerSurvivesCancelledProbe drives the leak end to end: trip a
// class, wait out the cooldown, then send the half-open probe with an
// already-cancelled request context. The cancelled probe must release
// its slot (neutral settle via the deferred ticket), so the next request
// becomes the probe and closes the breaker — before the fix the class
// answered 503 forever.
func TestBreakerSurvivesCancelledProbe(t *testing.T) {
	old := debugLogWriter
	debugLogWriter = io.Discard
	defer func() { debugLogWriter = old }()

	s := newTestServer(t, Config{})
	s.breakers.threshold, s.breakers.cooldown = 2, time.Minute
	clock := time.Unix(3000, 0)
	s.breakers.now = func() time.Time { return clock }
	c, h := armChaos(s, ChaosConfig{Seed: 11, FailRate: 1})

	body := `{"benchmark":"x264"}`
	for i := 0; i < 2; i++ {
		if w := post(t, h, "/v1/steady", body); w.Code != http.StatusInternalServerError {
			t.Fatalf("sabotaged solve %d: %d %s", i, w.Code, w.Body)
		}
	}
	c.disarm()
	clock = clock.Add(2 * time.Minute)

	// The probe arrives already cancelled: the solver never gets a say.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/steady", strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code == http.StatusOK {
		t.Fatalf("cancelled probe succeeded: %s", w.Body)
	}

	// The class must not be wedged: the next request is the new probe,
	// succeeds, and closes the breaker.
	if w := post(t, h, "/v1/steady", body); w.Code != http.StatusOK {
		t.Fatalf("class wedged after cancelled probe: %d %s", w.Code, w.Body)
	}
	if st := s.Snapshot(); st.Breakers.Open != 0 || st.Breakers.HalfOpen != 0 {
		t.Fatalf("breaker not closed: %+v", st.Breakers)
	}
	if got := s.Snapshot().BreakerTrips; got != 1 {
		t.Fatalf("trips = %d, want 1 (cancellations must not count)", got)
	}
}

// TestRecoverMiddleware: an injected handler panic becomes a structured
// 500, is counted, and the server keeps serving.
func TestRecoverMiddleware(t *testing.T) {
	old := debugLogWriter
	debugLogWriter = io.Discard
	defer func() { debugLogWriter = old }()

	s := newTestServer(t, Config{})
	c, h := armChaos(s, ChaosConfig{Seed: 1, PanicRate: 1})
	w := post(t, h, "/v1/steady", `{"benchmark":"x264"}`)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicked request: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "internal panic (recovered)") {
		t.Fatalf("panic 500 body: %s", w.Body)
	}
	if got := s.Snapshot().PanicsRecovered; got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
	c.disarm()
	if w := post(t, h, "/v1/steady", `{"benchmark":"x264"}`); w.Code != http.StatusOK {
		t.Fatalf("server did not survive the panic: %d %s", w.Code, w.Body)
	}
}

// TestSolvePanicReleasesFlightAndLease: a panic inside the steady solve
// still finishes the proposal's flight and releases its pooled session
// poisoned, so an identical request that follows gets its own answer
// instead of blocking forever on the flight, and the poisoned session
// never goes back to the pool.
func TestSolvePanicReleasesFlightAndLease(t *testing.T) {
	old := debugLogWriter
	debugLogWriter = io.Discard
	defer func() { debugLogWriter = old }()

	s := newTestServer(t, Config{})
	h := s.Handler()
	newSession := s.pools.newSession
	sabotaged := map[*cosim.Session]bool{}
	s.pools.newSession = func(k poolKey, sys *cosim.System) *cosim.Session {
		// A refrigerant without property tables panics on its first
		// lookup, inside the coupled solve.
		d := sys.Design
		d.Fluid = &refrigerant.Fluid{}
		ses := sys.NewSession(cosim.WithDesign(d), cosim.CarryWarmStart(false))
		sabotaged[ses] = true
		return ses
	}
	const body = `{"benchmark":"x264"}`
	for i := 1; i <= 2; i++ {
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() { done <- post(t, h, "/v1/steady", body) }()
		select {
		case w := <-done:
			if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "internal panic (recovered)") {
				t.Fatalf("request %d: %d %s, want a recovered-panic 500", i, w.Code, w.Body)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("request %d hung after a panicked solve", i)
		}
	}
	st := s.Snapshot()
	if st.PanicsRecovered != 2 {
		t.Fatalf("panics_recovered = %d, want 2", st.PanicsRecovered)
	}
	if st.Sessions != 0 || st.SessionBuilds != 2 || st.SessionReuses != 0 || st.Evictions != 2 {
		t.Fatalf("after two panicked solves: %d idle, %d builds, %d reuses, %d evictions; want 0, 2, 0, 2 (poisoned)",
			st.Sessions, st.SessionBuilds, st.SessionReuses, st.Evictions)
	}
	s.pools.newSession = newSession
	if w := post(t, h, "/v1/steady", body); w.Code != http.StatusOK {
		t.Fatalf("server did not recover from the panicked solves: %d %s", w.Code, w.Body)
	}
	if st := s.Snapshot(); st.SessionBuilds != 3 || st.SessionReuses != 0 {
		t.Fatalf("recovery solve: %d builds, %d reuses; want a fresh session (3, 0)", st.SessionBuilds, st.SessionReuses)
	}
	s.pools.mu.Lock()
	defer s.pools.mu.Unlock()
	for el := s.pools.lru.Front(); el != nil; el = el.Next() {
		for _, ses := range el.Value.(*pool).free {
			if sabotaged[ses] {
				t.Fatal("a poisoned session went back to its pool")
			}
		}
	}
}

// TestRetryAfterUnified: every refusal class derives its Retry-After from
// the same queue-depth hint — present on the drain 503 and on a
// registry-full 429.
func TestRetryAfterUnified(t *testing.T) {
	s := newTestServer(t, Config{})
	s.trans.cap = 1
	h := s.Handler()
	if w := post(t, h, "/v1/transient", `{"blade":"b0","benchmark":"x264"}`); w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	w := post(t, h, "/v1/transient", `{"blade":"b1","benchmark":"x264"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("registry-full: %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") != "1" {
		t.Fatalf("registry-full Retry-After = %q, want the idle-queue hint \"1\"", w.Header().Get("Retry-After"))
	}
	s.BeginDrain()
	w = post(t, h, "/v1/steady", `{"benchmark":"x264"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") != "5" {
		t.Fatalf("drain Retry-After = %q, want the drain hint \"5\"", w.Header().Get("Retry-After"))
	}
}
