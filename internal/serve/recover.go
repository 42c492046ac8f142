package serve

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/debug"
)

// debugLogWriter receives recovered-panic reports. It is a variable so
// tests that inject panics can capture (and silence) the expected spam.
var debugLogWriter io.Writer = os.Stderr

// recoverMiddleware turns a handler panic into a structured 500 instead
// of killing the process: the panic value and stack go to stderr via the
// standard log of last resort (os.Stderr through debug.PrintStack-style
// output), the client gets a JSON error, and the panics_recovered
// counter makes the event observable in /v1/stats. A panic after the
// handler already started writing cannot be turned into a clean 500 —
// the WriteHeader below is then a no-op and the client sees a truncated
// body — but the process survives either way, which is the contract a
// long-running digital twin actually needs.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.stats.panicsRecovered.Add(1)
				fmt.Fprintf(debugLogWriter, "serve: recovered panic in %s %s: %v\n%s",
					r.Method, r.URL.Path, v, debug.Stack())
				writeError(w, http.StatusInternalServerError,
					fmt.Sprintf("internal panic (recovered): %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}
