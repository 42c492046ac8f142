package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cosim"
)

// stepChunk posts a seq-numbered step chunk and returns the recorder.
func stepChunk(t *testing.T, h http.Handler, blade string, seq int, body string) *bytes.Buffer {
	t.Helper()
	w := post(t, h, "/v1/transient/"+blade+"/step", body)
	if w.Code != http.StatusOK {
		t.Fatalf("step seq %d: %d %s", seq, w.Code, w.Body)
	}
	return w.Body
}

// TestCheckpointRestoreByteIdentical is the crash-safety contract:
// checkpoint a streaming blade mid-trace, rebuild a fresh server from the
// file, and the restored blade's next chunk is byte-identical to the one
// the uninterrupted server produces.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	for _, solver := range []string{"cg", "mgpcg"} {
		t.Run(solver, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "ckpt.json")
			reg := `{"blade":"b0","benchmark":"x264","solver":"` + solver + `"}`
			chunk1 := `{"seq":1,"dt_s":0.25,"steps":[{},{"load":1.2}]}`
			chunk2 := `{"seq":2,"dt_s":0.25,"steps":[{"load":0.7},{}]}`

			s1 := newTestServer(t, Config{CheckpointPath: ckpt})
			h1 := s1.Handler()
			if w := post(t, h1, "/v1/transient", reg); w.Code != http.StatusCreated {
				t.Fatalf("register: %d %s", w.Code, w.Body)
			}
			stepChunk(t, h1, "b0", 1, chunk1)
			if w := post(t, h1, "/v1/checkpoint", ""); w.Code != http.StatusOK {
				t.Fatalf("checkpoint: %d %s", w.Code, w.Body)
			}
			// The uninterrupted server continues past the checkpoint.
			ref := stepChunk(t, h1, "b0", 2, chunk2)

			// A fresh server restores from the file and replays chunk 2.
			s2 := newTestServer(t, Config{CheckpointPath: ckpt, RestoreOnStart: true})
			h2 := s2.Handler()
			if got := s2.Snapshot().CheckpointBladesRestored; got != 1 {
				t.Fatalf("restored %d blades, want 1", got)
			}
			var st struct {
				TimeS float64 `json:"time_s"`
			}
			w := get(t, h2, "/v1/transient/b0")
			if w.Code != http.StatusOK {
				t.Fatalf("restored status: %d %s", w.Code, w.Body)
			}
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.TimeS != 0.5 {
				t.Fatalf("restored time_s = %v, want 0.5", st.TimeS)
			}
			got := stepChunk(t, h2, "b0", 2, chunk2)
			if !bytes.Equal(ref.Bytes(), got.Bytes()) {
				t.Fatalf("restore-then-step diverged from the uninterrupted run:\nref %s\ngot %s", ref, got)
			}
		})
	}
}

// TestTransientBladesShareSystem: blades registered at the same
// (resolution, fault) hold one System whatever their solver; a different
// fault gets its own System. Sharing leaks no state: every
// blade steps byte-identically to a blade alone on a fresh server, and
// after a checkpoint restore (which shares the System again) the next
// chunk matches the uninterrupted run.
func TestTransientBladesShareSystem(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	regs := map[string]string{
		"b0": `{"blade":"b0","benchmark":"x264"}`,
		"b1": `{"blade":"b1","benchmark":"canneal","idle":"C6"}`,
		"b2": `{"blade":"b2","benchmark":"x264","fault":"fouling:0.3"}`,
		"b3": `{"blade":"b3","benchmark":"vips","solver":"mgpcg"}`,
	}
	names := []string{"b0", "b1", "b2", "b3"}
	chunk1 := `{"seq":1,"dt_s":0.25,"steps":[{},{"load":1.2}]}`
	chunk2 := `{"seq":2,"dt_s":0.25,"steps":[{"load":0.7},{}]}`
	blade := func(s *Server, name string) *transientBlade {
		b, ok := s.trans.get(name)
		if !ok {
			t.Fatalf("blade %s not registered", name)
		}
		return b
	}
	checkShared := func(s *Server) {
		// sysOf is the System of the pool a blade's chunks borrow from.
		sysOf := func(name string) *cosim.System {
			key := blade(s, name).key
			s.pools.mu.Lock()
			defer s.pools.mu.Unlock()
			el, ok := s.pools.byKey[key]
			if !ok {
				t.Fatalf("blade %s has no live pool", name)
			}
			return el.Value.(*pool).sys
		}
		b0, b1, b2, b3 := sysOf("b0"), sysOf("b1"), sysOf("b2"), sysOf("b3")
		if b0 != b1 || b0 != b3 {
			t.Fatal("blades at one (resolution, fault) do not share one System")
		}
		if b2 == b0 {
			t.Fatal("a faulted blade shares the healthy System")
		}
	}

	s1 := newTestServer(t, Config{CheckpointPath: ckpt})
	h1 := s1.Handler()
	for _, n := range names {
		if w := post(t, h1, "/v1/transient", regs[n]); w.Code != http.StatusCreated {
			t.Fatalf("register %s: %d %s", n, w.Code, w.Body)
		}
	}
	checkShared(s1)
	first := map[string]*bytes.Buffer{}
	for _, n := range names {
		first[n] = stepChunk(t, h1, n, 1, chunk1)
	}
	if w := post(t, h1, "/v1/checkpoint", ""); w.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", w.Code, w.Body)
	}
	ref := map[string]*bytes.Buffer{}
	for _, n := range names {
		ref[n] = stepChunk(t, h1, n, 2, chunk2)
	}

	for _, n := range names {
		solo := newTestServer(t, Config{}).Handler()
		if w := post(t, solo, "/v1/transient", regs[n]); w.Code != http.StatusCreated {
			t.Fatalf("solo register %s: %d %s", n, w.Code, w.Body)
		}
		if got := stepChunk(t, solo, n, 1, chunk1); !bytes.Equal(first[n].Bytes(), got.Bytes()) {
			t.Fatalf("%s on a shared System diverged from a solo blade:\nshared %s\nsolo   %s", n, first[n], got)
		}
	}

	s2 := newTestServer(t, Config{CheckpointPath: ckpt, RestoreOnStart: true})
	checkShared(s2)
	h2 := s2.Handler()
	for _, n := range names {
		if got := stepChunk(t, h2, n, 2, chunk2); !bytes.Equal(ref[n].Bytes(), got.Bytes()) {
			t.Fatalf("%s: restore-then-step diverged from the uninterrupted run:\nref %s\ngot %s", n, ref[n], got)
		}
	}
}

// TestTransientBladesBorrowPooledSessions: blades hold their state, not a
// session. Eight blades on a one-worker server borrow one pooled session
// for every registration and chunk, so the server builds at most one, and
// every registration and chunk body is byte-identical to a blade alone
// on a fresh server.
func TestTransientBladesBorrowPooledSessions(t *testing.T) {
	benches := []string{"x264", "canneal", "ferret", "vips", "dedup", "blackscholes", "bodytrack", "streamcluster"}
	chunks := []string{
		`{"seq":1,"dt_s":0.25,"steps":[{},{"load":1.2}]}`,
		`{"seq":2,"dt_s":0.25,"steps":[{"load":0.7},{}]}`,
	}
	reg := func(i int) string {
		return fmt.Sprintf(`{"blade":"b%d","benchmark":%q,"initial_c":%d}`, i, benches[i], 25+3*i)
	}
	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	regBodies := make([][]byte, len(benches))
	for i := range benches {
		w := post(t, h, "/v1/transient", reg(i))
		if w.Code != http.StatusCreated {
			t.Fatalf("register b%d: %d %s", i, w.Code, w.Body)
		}
		regBodies[i] = w.Body.Bytes()
	}
	bodies := make([][][]byte, len(benches))
	for c, chunk := range chunks {
		for i := range benches {
			bodies[i] = append(bodies[i], stepChunk(t, h, fmt.Sprintf("b%d", i), c+1, chunk).Bytes())
		}
	}
	st := s.Snapshot()
	if borrows := len(benches) * (1 + len(chunks)); st.SessionBuilds > 1 || st.SessionBuilds+st.SessionReuses != int64(borrows) {
		t.Fatalf("%d session builds and %d reuses for %d registrations and chunks on one worker, want at most 1 build and one borrow each",
			st.SessionBuilds, st.SessionReuses, borrows)
	}
	for i := range benches {
		solo := newTestServer(t, Config{Workers: 1}).Handler()
		w := post(t, solo, "/v1/transient", reg(i))
		if w.Code != http.StatusCreated || !bytes.Equal(w.Body.Bytes(), regBodies[i]) {
			t.Fatalf("b%d registration differs from a solo blade's:\nshared %s\nsolo   %s", i, regBodies[i], w.Body)
		}
		for c, chunk := range chunks {
			if got := stepChunk(t, solo, fmt.Sprintf("b%d", i), c+1, chunk); !bytes.Equal(got.Bytes(), bodies[i][c]) {
				t.Fatalf("b%d chunk %d differs from a solo blade's:\nshared %s\nsolo   %s", i, c+1, bodies[i][c], got)
			}
		}
	}
}

// TestCheckpointIgnoresStoredBasePower: a restore derives each blade's
// base power map from its normalized proposal, never from the file. A
// correctly checksummed checkpoint whose blade carries a tampered
// "base_power_w" (negative watts, an unknown block) restores and steps
// bit-identically to the untampered one.
func TestCheckpointIgnoresStoredBasePower(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	s1 := newTestServer(t, Config{CheckpointPath: ckpt})
	h1 := s1.Handler()
	if w := post(t, h1, "/v1/transient", `{"blade":"b0","benchmark":"x264"}`); w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	stepChunk(t, h1, "b0", 1, `{"seq":1,"dt_s":0.25,"steps":[{},{"load":1.2}]}`)
	if w := post(t, h1, "/v1/checkpoint", ""); w.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", w.Code, w.Body)
	}

	tampered := filepath.Join(dir, "tampered.json")
	tamperCheckpoint(t, ckpt, tampered, func(blade map[string]any) {
		blade["base_power_w"] = map[string]float64{"Core0": -50, "Bogus": 3}
	})

	chunk2 := `{"seq":2,"dt_s":0.25,"steps":[{"load":0.7},{}]}`
	var out [2]string
	for i, path := range []string{ckpt, tampered} {
		s := newTestServer(t, Config{CheckpointPath: path, RestoreOnStart: true})
		if got := s.Snapshot().CheckpointBladesRestored; got != 1 {
			t.Fatalf("%s: restored %d blades, want 1", path, got)
		}
		h := s.Handler()
		w := get(t, h, "/v1/transient/b0")
		if w.Code != http.StatusOK {
			t.Fatalf("%s: restored status: %d %s", path, w.Code, w.Body)
		}
		out[i] = w.Body.String() + stepChunk(t, h, "b0", 2, chunk2).String()
	}
	if out[0] != out[1] {
		t.Fatalf("tampered base_power_w changed the restored blade:\nclean    %s\ntampered %s", out[0], out[1])
	}
}

// TestCheckpointRestoreValidatesRegistration: restore holds a saved
// blade to the rules registration does. A correctly checksummed
// checkpoint whose blade name is not one path segment, or whose initial
// temperature is out of range, restores nothing.
func TestCheckpointRestoreValidatesRegistration(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	s1 := newTestServer(t, Config{CheckpointPath: ckpt})
	if w := post(t, s1.Handler(), "/v1/transient", `{"blade":"b0","benchmark":"x264"}`); w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	if _, err := s1.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		field string
		value any
	}{
		{"slash in name", "blade", "b0/step"},
		{"dot name", "blade", ".."},
		{"initial below range", "initial_c", -500.0},
		{"initial overflowing", "initial_c", 1e200},
	} {
		tampered := filepath.Join(dir, "tampered.json")
		tamperCheckpoint(t, ckpt, tampered, func(blade map[string]any) { blade[c.field] = c.value })
		s := newTestServer(t, Config{CheckpointPath: tampered})
		if n, err := s.RestoreCheckpoint(); err == nil || n != 0 || s.trans.len() != 0 {
			t.Errorf("%s: restored %d blade(s), err %v; want an error and none", c.name, n, err)
		}
	}
}

// tamperCheckpoint rewrites the checkpoint at src into dst with its first
// blade edited, re-checksummed so the edit reaches restore.
func tamperCheckpoint(t *testing.T, src, dst string, edit func(blade map[string]any)) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var env checkpointFile
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	var payload map[string]any
	if err := json.Unmarshal(env.Payload, &payload); err != nil {
		t.Fatal(err)
	}
	edit(payload["blades"].([]any)[0].(map[string]any))
	if env.Payload, err = json.Marshal(payload); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(env.Payload)
	env.Checksum = hex.EncodeToString(sum[:])
	buf, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointSurvivesDrain: Close takes a final snapshot, so a
// graceful shutdown preserves the registry without an explicit POST.
func TestCheckpointSurvivesDrain(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	s1 := newTestServer(t, Config{CheckpointPath: ckpt})
	h1 := s1.Handler()
	if w := post(t, h1, "/v1/transient", `{"blade":"b0","benchmark":"x264"}`); w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	stepChunk(t, h1, "b0", 1, `{"seq":1,"dt_s":0.5,"steps":[{}]}`)
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := newTestServer(t, Config{CheckpointPath: ckpt, RestoreOnStart: true})
	if got := s2.trans.len(); got != 1 {
		t.Fatalf("drain checkpoint restored %d blades, want 1", got)
	}
}

// TestCheckpointPeriodic: the background loop snapshots without any
// operator action.
func TestCheckpointPeriodic(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	s := newTestServer(t, Config{CheckpointPath: ckpt, CheckpointEvery: 10 * time.Millisecond})
	h := s.Handler()
	if w := post(t, h, "/v1/transient", `{"blade":"b0","benchmark":"x264"}`); w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil && s.Snapshot().CheckpointSaves > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCheckpointRejectsCorruption: a flipped payload byte fails the
// checksum and a restoring boot refuses to start half-right.
func TestCheckpointRejectsCorruption(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	s := newTestServer(t, Config{CheckpointPath: ckpt})
	h := s.Handler()
	if w := post(t, h, "/v1/transient", `{"blade":"b0","benchmark":"x264"}`); w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	if _, err := s.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the payload's time field region.
	corrupted := bytes.Replace(raw, []byte(`"blade":"b0"`), []byte(`"blade":"bX"`), 1)
	if bytes.Equal(corrupted, raw) {
		t.Fatal("corruption did not apply")
	}
	if err := os.WriteFile(ckpt, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{CheckpointPath: ckpt, RestoreOnStart: true}); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}

	// A missing file is a fresh boot, not an error.
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{CheckpointPath: ckpt, RestoreOnStart: true})
	if err != nil {
		t.Fatalf("missing checkpoint should be a fresh boot: %v", err)
	}
	s2.Close()
}

// TestStepExactlyOnce: a retried chunk replays the cached body without
// advancing the sim, and a stale seq is refused with 409.
func TestStepExactlyOnce(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if w := post(t, h, "/v1/transient", `{"blade":"b0","benchmark":"x264"}`); w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	chunk := `{"seq":1,"dt_s":0.5,"steps":[{},{}]}`
	first := stepChunk(t, h, "b0", 1, chunk)

	// The retry replays: same bytes, marked, counted, sim not advanced.
	w := post(t, h, "/v1/transient/b0/step", chunk)
	if w.Code != http.StatusOK {
		t.Fatalf("retry: %d %s", w.Code, w.Body)
	}
	if w.Header().Get("X-Replayed") != "true" {
		t.Fatal("retry not marked X-Replayed")
	}
	if !bytes.Equal(first.Bytes(), w.Body.Bytes()) {
		t.Fatalf("replayed body differs:\n%s\n%s", first, w.Body)
	}
	st := s.Snapshot()
	if st.StepsDeduped != 1 {
		t.Fatalf("steps_deduped = %d, want 1", st.StepsDeduped)
	}
	if st.TransientSteps != 2 {
		t.Fatalf("transient_steps = %d, want 2 (retry must not re-step)", st.TransientSteps)
	}

	// Advancing to seq 2 then retrying seq 1 is a stale duplicate: 409.
	stepChunk(t, h, "b0", 2, `{"seq":2,"dt_s":0.5,"steps":[{}]}`)
	if w := post(t, h, "/v1/transient/b0/step", chunk); w.Code != http.StatusConflict {
		t.Fatalf("stale seq: %d, want 409 (%s)", w.Code, w.Body)
	}

	// Seq 0 opts out: the legacy at-least-once path still works.
	if w := post(t, h, "/v1/transient/b0/step", `{"dt_s":0.5,"steps":[{}]}`); w.Code != http.StatusOK {
		t.Fatalf("unsequenced step: %d %s", w.Code, w.Body)
	}
}

// errAfterCtx reports no error for the first n Err() calls, then
// context.Canceled — it simulates a client disconnecting partway through
// a step chunk (the step loop polls Err() once per step).
type errAfterCtx struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *errAfterCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}

// TestStepChunkAtomic: a chunk that dies partway through (client cancel
// after the first of three steps) must roll the sim back to the chunk
// boundary, so the retry of the same seq applies the whole chunk exactly
// once — byte-identical to a run that never failed. Without the rollback
// the retry would double-step the successful prefix.
func TestStepChunkAtomic(t *testing.T) {
	reg := `{"blade":"b0","benchmark":"x264"}`
	chunk := `{"seq":1,"dt_s":0.5,"steps":[{},{"load":1.1},{}]}`

	// Reference: the chunk applied uninterrupted.
	ref := newTestServer(t, Config{})
	hr := ref.Handler()
	if w := post(t, hr, "/v1/transient", reg); w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	want := stepChunk(t, hr, "b0", 1, chunk)

	// Same chunk, but the request context cancels after step 0 applies.
	s := newTestServer(t, Config{})
	h := s.Handler()
	if w := post(t, h, "/v1/transient", reg); w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/transient/b0/step", strings.NewReader(chunk))
	req.Header.Set("Content-Type", "application/json")
	req = req.WithContext(&errAfterCtx{Context: context.Background(), n: 1})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code == http.StatusOK {
		t.Fatalf("cancelled mid-chunk yet succeeded: %s", w.Body)
	}

	// The partial chunk rolled back: the blade is at t=0 and no steps are
	// counted as applied.
	var st struct {
		TimeS float64 `json:"time_s"`
	}
	g := get(t, h, "/v1/transient/b0")
	if err := json.Unmarshal(g.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.TimeS != 0 {
		t.Fatalf("partial chunk left time_s = %v, want 0 (rolled back)", st.TimeS)
	}
	if got := s.Snapshot().TransientSteps; got != 0 {
		t.Fatalf("transient_steps = %d after rollback, want 0", got)
	}

	// The retry of the same seq applies the full chunk, byte-identical to
	// the uninterrupted run.
	got := stepChunk(t, h, "b0", 1, chunk)
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("retry after rollback diverged from uninterrupted run:\nref %s\ngot %s", want, got)
	}
	if n := s.Snapshot().TransientSteps; n != 3 {
		t.Fatalf("transient_steps = %d, want 3", n)
	}
}

// TestCheckpointHandlerStatusCodes: POST /v1/checkpoint blames the client
// (400) only when checkpointing was never configured; a server-side write
// failure is a 500.
func TestCheckpointHandlerStatusCodes(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := post(t, s.Handler(), "/v1/checkpoint", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("unconfigured checkpoint: %d, want 400 (%s)", w.Code, w.Body)
	}

	// A checkpoint path in a directory that does not exist fails the
	// write — the server's problem, not the client's.
	s2 := newTestServer(t, Config{CheckpointPath: filepath.Join(t.TempDir(), "missing-dir", "ckpt.json")})
	if w := post(t, s2.Handler(), "/v1/checkpoint", ""); w.Code != http.StatusInternalServerError {
		t.Fatalf("failed checkpoint write: %d, want 500 (%s)", w.Code, w.Body)
	}
}
