package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cosim"
)

// ChaosConfig arms deterministic infrastructure-fault injection around a
// Server — the service-layer extension of the internal/faults idea: where
// a faults.Scenario derates pumps and condensers, chaos derates the
// *service* (latency, panics, failed solves). Every
// decision is drawn from one seeded PRNG, so a chaos run replays the
// same fault sequence for the same seed; the chaos tests lean on that to
// assert invariants (bounded error rates, byte-deterministic successes,
// clean drains) instead of eyeballing flakes.
type ChaosConfig struct {
	// Seed fixes the PRNG (0 is a valid, fixed seed).
	Seed int64
	// LatencyRate is the probability a request sleeps a uniform random
	// duration up to MaxLatency before being handled.
	LatencyRate float64
	MaxLatency  time.Duration
	// PanicRate is the probability a request panics mid-handler — the
	// recovery middleware must turn it into a structured 500.
	PanicRate float64
	// FailRate is the probability a steady solve fails outright with an
	// injected solver error (counted by the breaker, session closed).
	FailRate float64
}

// errChaosFail is the injected hard solver failure.
var errChaosFail = errors.New("serve: chaos-injected solve failure")

// chaos is an armed injector. All draws serialize through mu: the draw
// *sequence* is deterministic in the seed even though which request gets
// which draw depends on goroutine interleaving.
type chaos struct {
	mu  sync.Mutex
	rng *rand.Rand
	cfg ChaosConfig
}

func newChaos(cfg ChaosConfig) *chaos {
	return &chaos{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// armChaos installs a seeded injector on s: its solve faults wrap the
// server's solve seam, and the returned handler applies its request
// faults inside the recovery middleware, so injected panics exercise it.
// Arm before the first request; disarm stops every injection.
func armChaos(s *Server, cfg ChaosConfig) (*chaos, http.Handler) {
	c := newChaos(cfg)
	solve := s.solve
	s.solve = func(ctx context.Context, ses *cosim.Session, p steadyProposal) (*SteadyResponse, error) {
		if c.solveFails() {
			return nil, errChaosFail
		}
		return solve(ctx, ses, p)
	}
	routes := s.routes()
	return c, s.recoverMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		delay, panics := c.requestFaults()
		time.Sleep(delay)
		if panics {
			panic("chaos-injected handler panic")
		}
		routes.ServeHTTP(w, r)
	}))
}

// disarm zeroes every rate; requests already past a draw finish under it.
func (c *chaos) disarm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg = ChaosConfig{}
}

// draw is one Bernoulli decision; the caller holds mu.
func (c *chaos) draw(rate float64) bool { return rate > 0 && c.rng.Float64() < rate }

// requestFaults draws a request's injected delay and whether it panics.
func (c *chaos) requestFaults() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var delay time.Duration
	if c.cfg.MaxLatency > 0 && c.draw(c.cfg.LatencyRate) {
		delay = time.Duration(c.rng.Int63n(int64(c.cfg.MaxLatency)))
	}
	return delay, c.draw(c.cfg.PanicRate)
}

// solveFails draws whether a solve fails.
func (c *chaos) solveFails() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draw(c.cfg.FailRate)
}

// TestChaosHarness is the service-layer chaos drill: with every injector
// armed (latency, handler panics, hard solve failures)
// a storm of concurrent proposals must uphold the service invariants —
// successful bodies stay byte-deterministic per proposal, refusals stay
// structured (only known status codes, panics recovered and counted), a
// blade streamed through the storm lands at the exact simulated time,
// and the drain + checkpoint + restore cycle completes without leaking a
// goroutine.
func TestChaosHarness(t *testing.T) {
	old := debugLogWriter
	debugLogWriter = io.Discard
	defer func() { debugLogWriter = old }()
	before := runtime.NumGoroutine()

	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	s, err := New(Config{Workers: 2, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	s.breakers.threshold = 100
	c, h := armChaos(s, ChaosConfig{
		Seed:        42,
		LatencyRate: 0.2,
		MaxLatency:  2 * time.Millisecond,
		PanicRate:   0.1,
		FailRate:    0.1,
	})
	ts := httptest.NewServer(h)

	client := NewClient(7)
	client.MaxRetries = 2
	client.BaseDelay = time.Millisecond
	client.MaxDelay = 5 * time.Millisecond

	// Four distinct proposals, hammered concurrently under the storm.
	proposals := make([]string, 4)
	for i := range proposals {
		proposals[i] = fmt.Sprintf(`{"benchmark":"x264","water_c":%d,"water_flow_kgh":7}`, 25+i)
	}
	const perKey = 10
	var (
		mu       sync.Mutex
		statuses = map[int]int{}
		bodies   = make([]map[string]bool, len(proposals))
		wg       sync.WaitGroup
	)
	for i := range bodies {
		bodies[i] = map[string]bool{}
	}
	for k, p := range proposals {
		for j := 0; j < perKey; j++ {
			wg.Add(1)
			go func(k int, body string) {
				defer wg.Done()
				resp, err := client.PostJSON(context.Background(), ts.URL+"/v1/steady", []byte(body))
				if err != nil {
					t.Errorf("transport error under chaos: %v", err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				if resp.StatusCode == http.StatusOK {
					bodies[k][string(b)] = true
				}
				mu.Unlock()
			}(k, p)
		}
	}
	wg.Wait()

	// Bounded failure modes: every outcome is a known status, successes
	// dominate (retries absorb backpressure; only panics and injected
	// failures surface), and each proposal's successes are one byte string.
	total := 0
	for code, n := range statuses {
		total += n
		switch code {
		case http.StatusOK, http.StatusTooManyRequests,
			http.StatusInternalServerError, http.StatusServiceUnavailable:
		default:
			t.Fatalf("unexpected status %d under chaos (%d times)", code, n)
		}
	}
	if total != len(proposals)*perKey {
		t.Fatalf("accounted %d outcomes, want %d", total, len(proposals)*perKey)
	}
	if ok := statuses[http.StatusOK]; ok < total/3 {
		t.Fatalf("only %d/%d succeeded under chaos: %v", ok, total, statuses)
	}
	for k, set := range bodies {
		if len(set) > 1 {
			t.Fatalf("proposal %d produced %d distinct success bodies under chaos", k, len(set))
		}
	}
	st := s.Snapshot()
	if st.PanicsRecovered == 0 {
		t.Fatalf("panic injector armed but none recovered: %+v", st)
	}

	// Stream a blade through the storm with exactly-once seq numbers:
	// chaos may panic or refuse any attempt, but a blind retry of the same
	// seq can never double-advance the sim.
	register := func() {
		for attempt := 0; attempt < 100; attempt++ {
			resp, err := client.PostJSON(context.Background(), ts.URL+"/v1/transient",
				[]byte(`{"blade":"b0","benchmark":"x264"}`))
			if err != nil {
				t.Fatal(err)
			}
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusCreated {
				return
			}
		}
		t.Fatal("blade never registered under chaos")
	}
	register()
	for seq := 1; seq <= 3; seq++ {
		chunk := fmt.Sprintf(`{"seq":%d,"dt_s":0.25,"steps":[{},{}]}`, seq)
		okCount := 0
		for attempt := 0; attempt < 100 && okCount == 0; attempt++ {
			resp, err := client.PostJSON(context.Background(), ts.URL+"/v1/transient/b0/step", []byte(chunk))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode == http.StatusOK {
				okCount++
			}
			resp.Body.Close()
		}
		if okCount == 0 {
			t.Fatalf("seq %d never applied under chaos", seq)
		}
	}
	statusOf := func(h http.Handler) float64 {
		w := get(t, h, "/v1/transient/b0")
		if w.Code != http.StatusOK {
			t.Fatalf("blade status: %d %s", w.Code, w.Body)
		}
		var out struct {
			TimeS float64 `json:"time_s"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.TimeS
	}
	c.disarm()
	if got := statusOf(s.Handler()); got != 1.5 {
		t.Fatalf("blade time after 3 exactly-once chunks = %v, want 1.5 (retries double-stepped?)", got)
	}

	// Drain: the final checkpoint preserves the blade, Close completes,
	// and a restored server resumes at the same time.
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close under post-chaos drain: %v", err)
	}
	s2, err := New(Config{CheckpointPath: ckpt, RestoreOnStart: true})
	if err != nil {
		t.Fatalf("restore after chaos run: %v", err)
	}
	if got := statusOf(s2.Handler()); got != 1.5 {
		t.Fatalf("restored blade time = %v, want 1.5", got)
	}
	s2.Close()

	// No goroutine leaks once the drains settle.
	if c := client.HTTP; c != nil {
		c.CloseIdleConnections()
	}
	leakDeadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutine leak: %d before, %d after chaos drill", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosDeterministicDraws: the injector's decision sequence is fixed
// by the seed — two injectors with the same config draw identically.
func TestChaosDeterministicDraws(t *testing.T) {
	cfg := ChaosConfig{Seed: 9, FailRate: 0.3, PanicRate: 0.2, LatencyRate: 0.5, MaxLatency: time.Millisecond}
	a, b := newChaos(cfg), newChaos(cfg)
	var seqA, seqB bytes.Buffer
	for i := 0; i < 200; i++ {
		d, p := a.requestFaults()
		fail := a.solveFails()
		fmt.Fprintf(&seqA, "%v%v%v;", d, p, fail)
		d, p = b.requestFaults()
		fail = b.solveFails()
		fmt.Fprintf(&seqB, "%v%v%v;", d, p, fail)
	}
	if seqA.String() != seqB.String() {
		t.Fatal("same seed drew different chaos sequences")
	}
}
