package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzNormalizeSteady checks steady-proposal canonicalization against
// arbitrary request bodies: normalizeSteady never panics, and a proposal
// it accepts re-normalizes to the same memo key, both from its canonical
// request and from that key decoded back as a request body (the form a
// checkpoint stores). Canonicalization must be idempotent, or one
// proposal would occupy several memo entries and breaker classes. The seed corpus
// lives in testdata/fuzz/FuzzNormalizeSteady.
func FuzzNormalizeSteady(f *testing.F) {
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SteadyRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		p, err := s.normalizeSteady(req)
		if err != nil {
			return
		}
		again, err := s.normalizeSteady(p.req)
		if err != nil {
			t.Fatalf("canonical request %s rejected on re-normalization: %v", p.key, err)
		}
		if again.key != p.key || again.class != p.class {
			t.Fatalf("re-normalization moved the proposal:\n key %s\n  →  %s\n class %+v\n  →  %+v", p.key, again.key, p.class, again.class)
		}
		var back SteadyRequest
		dec = json.NewDecoder(bytes.NewReader([]byte(p.key)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("memo key %s does not decode as a request: %v", p.key, err)
		}
		round, err := s.normalizeSteady(back)
		if err != nil {
			t.Fatalf("memo key %s rejected as a request: %v", p.key, err)
		}
		if round.key != p.key {
			t.Fatalf("memo key does not survive a JSON round trip:\n %s\n → %s", p.key, round.key)
		}
	})
}

// FuzzCheckpointPayload checks checkpoint restore against arbitrary
// payloads. The harness wraps the payload in an envelope with the current
// version and a correct SHA-256, so mutations reach payload decoding and
// blade rebuilding instead of stopping at the checksum. RestoreCheckpoint
// on a fresh server never panics, and a restore it accepts registers
// exactly the payload's blades at their saved time_s and last_seq, which
// a SaveCheckpoint → RestoreCheckpoint round trip onto another fresh
// server preserves. The seed corpus, which includes the payload of a
// registered and stepped blade, lives in
// testdata/fuzz/FuzzCheckpointPayload.
func FuzzCheckpointPayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		// The envelope carries the payload as a JSON value, so bytes that
		// are not JSON cannot reach payload decoding; compacting first
		// makes the checksum cover exactly the bytes the file holds.
		var raw bytes.Buffer
		if err := json.Compact(&raw, payload); err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "ckpt.json")
		env := fmt.Appendf(nil, `{"version":%d,"checksum_sha256":"%x","payload":%s}`,
			checkpointVersion, sha256.Sum256(raw.Bytes()), raw.Bytes())
		if err := os.WriteFile(path, env, 0o600); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{CheckpointPath: path})
		if _, err := s.RestoreCheckpoint(); err != nil {
			return
		}
		var decoded checkpointPayload
		if err := json.Unmarshal(raw.Bytes(), &decoded); err != nil {
			t.Fatalf("restore accepted a payload that does not decode: %v", err)
		}
		want := make(map[string]bladeMark, len(decoded.Blades))
		for _, b := range decoded.Blades {
			want[b.Blade] = bladeMark{TimeS: b.State.TimeS, LastSeq: b.LastSeq}
		}
		got := bladeMarks(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("restored blades %v, payload holds %v", got, want)
		}
		if _, err := s.SaveCheckpoint(); err != nil {
			t.Fatalf("save after an accepted restore: %v", err)
		}
		again := newTestServer(t, Config{CheckpointPath: path})
		if _, err := again.RestoreCheckpoint(); err != nil {
			t.Fatalf("restore of a saved checkpoint: %v", err)
		}
		if round := bladeMarks(again); !reflect.DeepEqual(round, got) {
			t.Fatalf("save → restore moved the blades: %v → %v", got, round)
		}
	})
}

// FuzzTransientStep checks step-chunk handling against arbitrary request
// bodies. Each input runs on a fresh coarse server (maxSteps 4) with one
// registered blade and is posted twice, so a seq-numbered chunk also
// meets its own retry. No post panics; a refused or replayed chunk leaves
// the blade's time_s where it was; and an applied chunk returns one
// finite sample per step, strictly increasing in time, the last of them
// at the blade's new time_s. The seed corpus, which includes a chunk
// whose dt_s would push the clock to 1e308 s, lives in
// testdata/fuzz/FuzzTransientStep.
func FuzzTransientStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newTestServer(t, Config{})
		s.maxSteps = 4
		h := s.Handler()
		if w := post(t, h, "/v1/transient", `{"blade":"b0","benchmark":"x264"}`); w.Code != http.StatusCreated {
			t.Fatalf("register: %d %s", w.Code, w.Body)
		}
		timeS := func() float64 {
			w := get(t, h, "/v1/transient/b0")
			var st TransientStatus
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
				t.Fatalf("blade status %d %s: %v", w.Code, w.Body, err)
			}
			return st.TimeS
		}
		for attempt := 0; attempt < 2; attempt++ {
			before := timeS()
			w := post(t, h, "/v1/transient/b0/step", string(body))
			if n := s.Snapshot().PanicsRecovered; n != 0 {
				t.Fatalf("chunk %q panicked the handler: %s", body, w.Body)
			}
			after := timeS()
			if w.Code != http.StatusOK || w.Header().Get("X-Replayed") != "" {
				if after != before {
					t.Fatalf("chunk %q answered %d (replayed %q) but moved time_s %g → %g",
						body, w.Code, w.Header().Get("X-Replayed"), before, after)
				}
				continue
			}
			var req TransientStepRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("applied chunk %q does not decode: %v", body, err)
			}
			var resp struct {
				Samples []TransientSample `json:"samples"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("chunk %q response %s: %v", body, w.Body, err)
			}
			if len(resp.Samples) != len(req.Steps) {
				t.Fatalf("chunk %q of %d steps returned %d samples", body, len(req.Steps), len(resp.Samples))
			}
			prev := before
			for i, sm := range resp.Samples {
				if !(sm.TimeS > prev) || math.IsInf(sm.TimeS, 0) {
					t.Fatalf("chunk %q sample %d at %g s after %g s", body, i, sm.TimeS, prev)
				}
				prev = sm.TimeS
			}
			if prev != after {
				t.Fatalf("chunk %q ended at %g s, blade reports time_s %g", body, prev, after)
			}
		}
	})
}

// FuzzTransientRegister checks transient registration against arbitrary
// request bodies, each posted to a fresh coarse server. No registration
// panics the handler, and a refused one holds no registry slot. An
// accepted one is reachable by GET at its path-escaped name, takes a
// one-step 0.1 s chunk with 200, and is released by DELETE. The seed
// corpus, which includes a name with a "/" and an initial_c of 1e200,
// lives in testdata/fuzz/FuzzTransientRegister.
func FuzzTransientRegister(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newTestServer(t, Config{})
		h := s.Handler()
		w := post(t, h, "/v1/transient", string(body))
		if n := s.Snapshot().PanicsRecovered; n != 0 {
			t.Fatalf("registration %q panicked the handler: %s", body, w.Body)
		}
		if w.Code != http.StatusCreated {
			if n := s.trans.len(); n != 0 {
				t.Fatalf("registration %q answered %d but holds %d registry slot(s)", body, w.Code, n)
			}
			return
		}
		var st TransientStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("registration %q response %s: %v", body, w.Body, err)
		}
		path := "/v1/transient/" + url.PathEscape(st.Blade)
		if w := get(t, h, path); w.Code != http.StatusOK {
			t.Fatalf("registration %q: GET %s answered %d %s", body, path, w.Code, w.Body)
		}
		if w := post(t, h, path+"/step", `{"dt_s":0.1,"steps":[{}]}`); w.Code != http.StatusOK {
			t.Fatalf("registration %q: step %s answered %d %s", body, path, w.Code, w.Body)
		}
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodDelete, path, nil))
		if rw.Code != http.StatusOK || s.trans.len() != 0 {
			t.Fatalf("registration %q: DELETE %s answered %d %s, %d blade(s) left",
				body, path, rw.Code, rw.Body, s.trans.len())
		}
	})
}

// bladeMark is what a checkpoint round trip must preserve per blade.
type bladeMark struct {
	TimeS   float64
	LastSeq int64
}

// bladeMarks maps every registered transient blade to its mark.
func bladeMarks(s *Server) map[string]bladeMark {
	out := make(map[string]bladeMark)
	for _, name := range s.trans.names() {
		b, ok := s.trans.get(name)
		if !ok {
			continue
		}
		b.mu.Lock()
		out[name] = bladeMark{TimeS: b.sim.Time(), LastSeq: b.lastSeq}
		b.mu.Unlock()
	}
	return out
}
