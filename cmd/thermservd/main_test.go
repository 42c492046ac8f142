package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// testOptions is the coarse single-worker daemon config the end-to-end
// tests boot with.
func testOptions() options {
	return options{
		Addr:       "127.0.0.1:0",
		Resolution: "coarse",
		Solver:     "cg",
		Workers:    1,
		Threads:    1,
		Timeout:    time.Minute,
		DrainWait:  30 * time.Second,
	}
}

// bootDaemon starts run(o) in a goroutine and waits for the bound address.
func bootDaemon(t *testing.T, o options) (addr string, done chan error) {
	t.Helper()
	return bootDaemonTo(t, o, io.Discard)
}

// bootDaemonTo is bootDaemon with the daemon's status lines written to
// stdout; read it only after done has delivered.
func bootDaemonTo(t *testing.T, o options, stdout io.Writer) (addr string, done chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done = make(chan error, 1)
	go func() { done <- run(o, stdout, ready) }()
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return addr, done
}

// sigtermDrain drives the SIGTERM drain path to a clean exit.
func sigtermDrain(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// TestDaemonEndToEnd boots the daemon on an ephemeral port, exercises the
// steady and experiments endpoints over a real socket, then drives the
// SIGTERM drain path to a clean exit.
func TestDaemonEndToEnd(t *testing.T) {
	addr, done := bootDaemon(t, testOptions())
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/steady", "application/json",
		strings.NewReader(`{"benchmark":"x264"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("steady: %d %s", resp.StatusCode, body)
	}
	var steady struct {
		DieMaxC  float64 `json:"die_max_c"`
		Feasible bool    `json:"feasible"`
	}
	if err := json.Unmarshal(body, &steady); err != nil {
		t.Fatalf("steady JSON: %v", err)
	}
	if steady.DieMaxC <= 30 {
		t.Fatalf("die max %.1f", steady.DieMaxC)
	}

	resp, err = http.Get(base + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var list struct {
		Experiments []struct{ Name string } `json:"experiments"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("experiments JSON: %v", err)
	}
	if len(list.Experiments) == 0 {
		t.Fatal("empty experiment catalog")
	}

	sigtermDrain(t, done)
}

// TestDaemonCheckpointRestore runs the operator workflow end to end: boot
// with a checkpoint path, register a blade and stream a chunk, drain (the
// final snapshot), then boot a second daemon with -restore and check the
// blade resumes at its exact checkpointed time.
func TestDaemonCheckpointRestore(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	o := testOptions()
	o.CheckpointPath = ckpt

	addr, done := bootDaemon(t, o)
	base := "http://" + addr
	resp, err := http.Post(base+"/v1/transient", "application/json",
		strings.NewReader(`{"blade":"b0","benchmark":"x264"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/transient/b0/step", "application/json",
		strings.NewReader(`{"seq":1,"dt_s":0.25,"steps":[{},{}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step: %d", resp.StatusCode)
	}
	sigtermDrain(t, done)

	o.Restore = true
	addr, done = bootDaemon(t, o)
	base = "http://" + addr
	resp, err = http.Get(base + "/v1/transient/b0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored blade status: %d %s", resp.StatusCode, body)
	}
	var st struct {
		TimeS float64 `json:"time_s"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.TimeS != 0.5 {
		t.Fatalf("restored time_s = %v, want 0.5", st.TimeS)
	}
	sigtermDrain(t, done)
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	bad := func(mutate func(*options)) options {
		o := testOptions()
		o.Workers, o.Threads, o.Timeout = 0, 0, 0
		mutate(&o)
		return o
	}
	if err := run(bad(func(o *options) { o.Resolution = "ultra" }), io.Discard, nil); err == nil {
		t.Fatal("bad resolution accepted")
	}
	if err := run(bad(func(o *options) { o.Solver = "gauss" }), io.Discard, nil); err == nil {
		t.Fatal("bad solver accepted")
	}
	if err := run(bad(func(o *options) { o.Addr = "256.0.0.1:99999" }), io.Discard, nil); err == nil {
		t.Fatal("bad address accepted")
	}
	if err := run(bad(func(o *options) { o.Restore = true }), io.Discard, nil); err == nil {
		t.Fatal("-restore without -checkpoint accepted")
	}
}

// TestDaemonDefaultsAnnounceMGPCG: with no -solver flag the daemon serves
// on MG-PCG, and its listening line (the one thermbench parses to replay
// with the daemon's solver) says so.
func TestDaemonDefaultsAnnounceMGPCG(t *testing.T) {
	fs := flag.NewFlagSet("thermservd", flag.ContinueOnError)
	var o options
	registerFlags(fs, &o)
	if err := fs.Parse([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-threads", "1"}); err != nil {
		t.Fatal(err)
	}
	if o.Solver != "mgpcg" {
		t.Fatalf("default -solver = %q, want mgpcg", o.Solver)
	}
	var out bytes.Buffer
	_, done := bootDaemonTo(t, o, &out)
	sigtermDrain(t, done)
	first, _, _ := strings.Cut(out.String(), "\n")
	if !strings.HasPrefix(first, "thermservd listening on ") || !strings.Contains(first, " solver=mgpcg ") {
		t.Fatalf("listening line %q does not announce solver=mgpcg", first)
	}
}
