package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkServeSteady measures the three /v1/steady service tiers at
// medium resolution: a memo hit (the warm-cache product), a warm-session
// miss (memo cleared, session pooled — pays a solve but no system build),
// and a cold miss (everything rebuilt). The hit/cold ratio is the PR's
// ≥50× acceptance bar.
func BenchmarkServeSteady(b *testing.B) {
	body := `{"benchmark":"x264"}`
	mk := func(b *testing.B) (*Server, http.Handler) {
		s, err := New(Config{Resolution: experiments.Medium, Threads: 1, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		return s, s.Handler()
	}
	do := func(b *testing.B, h http.Handler, wantCache string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/steady", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if wantCache != "" && w.Header().Get("X-Cache") != wantCache {
			b.Fatalf("X-Cache %q, want %q", w.Header().Get("X-Cache"), wantCache)
		}
	}

	b.Run("memo-hit", func(b *testing.B) {
		s, h := mk(b)
		_ = s
		do(b, h, "miss") // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			do(b, h, "hit")
		}
	})
	b.Run("session-warm-miss", func(b *testing.B) {
		s, h := mk(b)
		do(b, h, "miss") // build the session
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.memo.reset()
			b.StartTimer()
			do(b, h, "miss")
		}
	})
	b.Run("cold-miss", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, h := mk(b)
			b.StartTimer()
			do(b, h, "miss")
		}
	})
}

// BenchmarkServeTransientStep measures one transient step through the
// service path (validation + admission + step + sample), coarse grid.
func BenchmarkServeTransientStep(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	s.maxSteps = 1 << 20
	defer s.Close()
	h := s.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/transient",
		strings.NewReader(`{"blade":"b0","benchmark":"x264"}`)))
	if w.Code != http.StatusCreated {
		b.Fatalf("register: %d %s", w.Code, w.Body)
	}
	body := `{"dt_s":0.05,"steps":[{}]}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/transient/b0/step", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("step: %d %s", w.Code, w.Body)
		}
	}
}
