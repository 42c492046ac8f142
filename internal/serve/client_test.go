package serve

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Client is the retry-disciplined HTTP client the chaos test drives a
// Server with: capped exponential backoff with full jitter,
// honoring the server's Retry-After hint, with deadline propagation —
// the client never sleeps past its context deadline, it returns the last
// refusal instead.
//
// Retries are reserved for outcomes the server has declared retryable:
// transport errors, 429 (admission backpressure), and 503 (drain or an
// open circuit breaker). Anything else — including 500s — is returned to
// the caller immediately: a deterministic solver will fail the retry
// exactly the same way, and retrying it would just burn admission slots.
//
// The jitter PRNG is seeded, so a run replays the same backoff schedule;
// a Client is safe for concurrent use.
type Client struct {
	// HTTP is the transport (nil = http.DefaultClient semantics with a
	// fresh client).
	HTTP *http.Client
	// MaxRetries caps retry attempts per request (not counting the first
	// try). Zero means no retries.
	MaxRetries int
	// BaseDelay/MaxDelay shape the backoff: attempt k waits a uniform
	// random duration in [0, min(MaxDelay, BaseDelay·2^k)] (full jitter),
	// raised to the server's Retry-After hint when that is larger (and
	// itself capped at MaxDelay). Zeroes default to 100 ms / 2 s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// OnRetry, when set, observes every scheduled retry.
	OnRetry func(attempt int, status int, delay time.Duration)

	mu      sync.Mutex
	rng     *rand.Rand
	retries atomic.Int64
}

// NewClient returns a retrying client with the default backoff envelope
// and a jitter PRNG fixed by seed.
func NewClient(seed int64) *Client {
	return &Client{
		HTTP:       &http.Client{},
		MaxRetries: 4,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Retries returns the cumulative number of retries the client has spent.
func (c *Client) Retries() int64 { return c.retries.Load() }

// retryable reports whether a status code is worth retrying.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// backoff draws the attempt's delay: full jitter over the capped
// exponential envelope, raised to the server's Retry-After when given.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	base, max := c.BaseDelay, c.MaxDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	envelope := base << uint(attempt)
	if envelope > max || envelope <= 0 {
		envelope = max
	}
	c.mu.Lock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	d := time.Duration(c.rng.Int63n(int64(envelope) + 1))
	c.mu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	if d > max {
		d = max
	}
	return d
}

// PostJSON posts body to url, retrying refusals within the backoff
// envelope and the context deadline. It returns the final response (the
// caller owns Body) or the final transport error.
func (c *Client) PostJSON(ctx context.Context, url string, body []byte) (*http.Response, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = &http.Client{}
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := httpc.Do(req)
		var status int
		var retryAfter time.Duration
		if err == nil {
			if !retryable(resp.StatusCode) || attempt >= c.MaxRetries {
				return resp, nil
			}
			status = resp.StatusCode
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		} else {
			if ctx.Err() != nil || attempt >= c.MaxRetries {
				return nil, err
			}
		}
		delay := c.backoff(attempt, retryAfter)
		// Deadline propagation: a sleep that cannot complete before the
		// deadline is pointless — surface the live refusal instead of
		// hammering a server that asked us to wait.
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < delay {
			if err != nil {
				return nil, err
			}
			return resp, nil
		}
		if resp != nil {
			resp.Body.Close()
		}
		c.retries.Add(1)
		if c.OnRetry != nil {
			c.OnRetry(attempt+1, status, delay)
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestClientRetriesRefusals: 429s inside the retry budget are retried
// until the server relents; the Retry-After hint raises the drawn delay.
func TestClientRetriesRefusals(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := NewClient(1)
	c.BaseDelay = time.Millisecond
	c.MaxDelay = 5 * time.Millisecond // caps the 1 s Retry-After for test speed
	var delays []time.Duration
	c.OnRetry = func(attempt, status int, delay time.Duration) {
		if status != http.StatusTooManyRequests {
			t.Errorf("retry observed status %d", status)
		}
		delays = append(delays, delay)
	}
	resp, err := c.PostJSON(context.Background(), ts.URL, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final status %d", resp.StatusCode)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if c.Retries() != 2 || len(delays) != 2 {
		t.Fatalf("retries = %d, observed %d", c.Retries(), len(delays))
	}
	for _, d := range delays {
		// Retry-After (1 s) exceeds the envelope, so every delay is pinned
		// to the MaxDelay cap.
		if d != c.MaxDelay {
			t.Fatalf("delay %v, want Retry-After raised then capped at %v", d, c.MaxDelay)
		}
	}
}

// TestClientDoesNotRetryDeterministicFailures: a 500 is returned
// immediately — a deterministic solver fails the retry identically.
func TestClientDoesNotRetryDeterministicFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := NewClient(1)
	resp, err := c.PostJSON(context.Background(), ts.URL, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || calls.Load() != 1 || c.Retries() != 0 {
		t.Fatalf("status %d after %d calls, %d retries", resp.StatusCode, calls.Load(), c.Retries())
	}
}

// TestClientHonorsDeadline: when the backoff cannot complete before the
// context deadline, the client surfaces the live refusal instead of
// sleeping past it.
func TestClientHonorsDeadline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := NewClient(1)
	c.MaxDelay = time.Minute // lets the 30 s hint through
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	resp, err := c.PostJSON(ctx, ts.URL, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want the live 503", resp.StatusCode)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("client slept %v past its deadline", elapsed)
	}
	if c.Retries() != 0 {
		t.Fatalf("retries = %d, want 0 (no sleep fit the deadline)", c.Retries())
	}
}

// TestClientBackoffDeterministic: two clients with the same seed draw the
// same jittered schedule.
func TestClientBackoffDeterministic(t *testing.T) {
	a, b := NewClient(42), NewClient(42)
	a.BaseDelay, b.BaseDelay = time.Millisecond, time.Millisecond
	a.MaxDelay, b.MaxDelay = 100*time.Millisecond, 100*time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		if da, db := a.backoff(attempt, 0), b.backoff(attempt, 0); da != db {
			t.Fatalf("attempt %d: %v vs %v", attempt, da, db)
		}
	}
}
