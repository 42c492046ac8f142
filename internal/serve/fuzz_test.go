package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzNormalizeSteady checks steady-proposal canonicalization against
// arbitrary request bodies: normalizeSteady never panics, and a proposal
// it accepts re-normalizes to the same memo key, both from its canonical
// request and from that key decoded back as a request body (the form a
// checkpoint stores). Canonicalization must be idempotent, or one
// proposal would occupy several memo entries and leases. The seed corpus
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
		if again.key != p.key || again.lease != p.lease {
			t.Fatalf("re-normalization moved the proposal:\n key %s\n  →  %s\n lease %+v\n  →  %+v", p.key, again.key, p.lease, again.lease)
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
