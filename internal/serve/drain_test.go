package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDrainUnderLoad exercises the full shutdown sequence against a real
// listener while a long transient chunk is in flight: BeginDrain must
// refuse new work with 503, http.Server.Shutdown must wait for the chunk
// to complete normally, Close must retire every session, and the whole
// dance must leak no goroutines.
func TestDrainUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()

	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	serveDone := make(chan error, 1)
	go func() { serveDone <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	postJSON := func(path, body string) (*http.Response, error) {
		return client.Post(base+path, "application/json", strings.NewReader(body))
	}

	// Register a blade and launch a long step chunk: 400 coarse steps keep
	// the handler busy well past the drain flip.
	resp, err := postJSON("/v1/transient", `{"blade":"b0","benchmark":"x264"}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, drainBody(t, resp))
	}
	resp.Body.Close()

	steps := make([]string, 400)
	for i := range steps {
		steps[i] = "{}"
	}
	chunk := fmt.Sprintf(`{"dt_s":0.05,"steps":[%s]}`, strings.Join(steps, ","))
	chunkDone := make(chan error, 1)
	var chunkSamples int
	go func() {
		resp, err := postJSON("/v1/transient/b0/step", chunk)
		if err != nil {
			chunkDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			chunkDone <- fmt.Errorf("chunk status %d", resp.StatusCode)
			return
		}
		var out struct {
			Samples []TransientSample `json:"samples"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			chunkDone <- err
			return
		}
		chunkSamples = len(out.Samples)
		chunkDone <- nil
	}()

	// Wait until the chunk is actually solving, then flip to drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("chunk never went in flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.BeginDrain()

	// New work is cleanly refused while the chunk still runs.
	resp, err = postJSON("/v1/steady", `{"benchmark":"canneal"}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining steady: %d, want 503 (%s)", resp.StatusCode, drainBody(t, resp))
	}
	resp.Body.Close()

	// Shutdown waits out the in-flight chunk.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-chunkDone; err != nil {
		t.Fatalf("in-flight chunk: %v", err)
	}
	if chunkSamples != 400 {
		t.Fatalf("chunk completed %d of 400 samples", chunkSamples)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := s.Snapshot().Sessions; got != 0 {
		t.Fatalf("%d sessions survive Close", got)
	}
	if got := s.trans.len(); got != 0 {
		t.Fatalf("%d transient blades survive Close", got)
	}

	// No goroutine leaks: allow a small slack for the runtime's own
	// background goroutines, with a deadline loop for stragglers.
	client.CloseIdleConnections()
	leakDeadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutine leak: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
