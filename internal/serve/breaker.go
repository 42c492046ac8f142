package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// breakerState is one circuit-breaker position. The machine is the
// classic three-state one: closed (requests flow, consecutive bad
// outcomes counted), open (requests refused with 503 + Retry-After until
// the cooldown elapses), half-open (exactly one probe request is let
// through; its outcome decides between closing and re-opening).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (st breakerState) String() string {
	switch st {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breakerOutcome is how an admitted solve ended, from the breaker's
// point of view.
type breakerOutcome int

const (
	// outcomeNeutral: the solve never ran or was cut short through no
	// fault of the solver (admission refusal, system build failure,
	// client cancellation or deadline). It releases a probe slot without
	// counting for or against the breaker.
	outcomeNeutral breakerOutcome = iota
	outcomeGood
	// outcomeBad: a hard solver failure or an escalation-ladder rescue.
	outcomeBad
)

// breaker is the per-proposal-class trip state. A "bad" outcome is a
// solver failure or a solve the escalation ladder had to rescue — an
// escalation storm on a class is a leading indicator that its solves are
// expensive or about to fail, so consecutive escalated solves trip the
// breaker just like consecutive hard failures do.
type breaker struct {
	state    breakerState
	bad      int // consecutive bad outcomes
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	// gen counts open transitions. Tickets record the generation they were
	// admitted under; a ticket settled after the breaker has since tripped
	// (or re-tripped) is stale and ignored, so an outcome from a solve
	// admitted before the trip can neither close the breaker on a stale
	// success nor double-count a stale failure.
	gen uint64
}

// breakerTicket is the obligation admit hands to an admitted caller: it
// MUST be settled exactly once, on every exit path (settle is idempotent
// and nil-safe, so `defer settle(tok, ...)` is the intended shape). This
// is what guarantees a half-open probe slot can never leak — before
// tickets, an early return between admit and observe wedged the key's
// breaker in probing state forever.
type breakerTicket struct {
	key     classKey
	gen     uint64
	probe   bool
	settled bool
}

// BreakerInfo describes one tripped (non-closed) breaker in /v1/stats.
type BreakerInfo struct {
	Key            string `json:"key"`
	State          string `json:"state"`
	ConsecutiveBad int    `json:"consecutive_bad"`
}

// BreakerStats is the breaker section of /v1/stats: instantaneous state
// counts plus every non-closed breaker by key, so an operator can see
// which proposal class is failing without scraping logs.
type BreakerStats struct {
	Closed   int           `json:"closed"`
	Open     int           `json:"open"`
	HalfOpen int           `json:"half_open"`
	Tripped  []BreakerInfo `json:"tripped,omitempty"`
}

// breakerSet owns one breaker per proposal class. Classes whose breaker
// returns to a clean closed state are pruned, so the map tracks only
// classes with recent trouble.
type breakerSet struct {
	mu        sync.Mutex
	m         map[classKey]*breaker
	threshold int           // consecutive bad outcomes that trip
	cooldown  time.Duration // open → half-open delay
	now       func() time.Time
	trips     atomic.Int64 // cumulative transitions to open
}

func newBreakerSet(threshold int, cooldown time.Duration) *breakerSet {
	return &breakerSet{
		m:         make(map[classKey]*breaker),
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
	}
}

// admit asks whether a solve for the key may proceed. An admitted caller
// gets a non-nil ticket it must settle exactly once (defer it). A
// refusal returns a nil ticket and the Retry-After hint in whole
// seconds: the remaining cooldown for an open breaker, one second while
// a half-open probe is already in flight.
func (bs *breakerSet) admit(key classKey) (tok *breakerTicket, retryAfterSecs int) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[key]
	if b == nil {
		return &breakerTicket{key: key}, 0
	}
	switch b.state {
	case breakerClosed:
		return &breakerTicket{key: key, gen: b.gen}, 0
	case breakerOpen:
		remaining := b.openedAt.Add(bs.cooldown).Sub(bs.now())
		if remaining > 0 {
			secs := int((remaining + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			return nil, secs
		}
		// Cooldown over: this caller becomes the half-open probe.
		b.state = breakerHalfOpen
		b.probing = true
		return &breakerTicket{key: key, gen: b.gen, probe: true}, 0
	default: // half-open
		if b.probing {
			return nil, 1
		}
		b.probing = true
		return &breakerTicket{key: key, gen: b.gen, probe: true}, 0
	}
}

// settle records the outcome of an admitted solve. It is nil-safe and
// idempotent per ticket, so callers defer it unconditionally. A neutral
// outcome releases a probe slot (the next admit becomes the probe)
// without moving the state machine; a ticket from a generation older
// than the breaker's current open cycle is ignored entirely.
func (bs *breakerSet) settle(tok *breakerTicket, out breakerOutcome) {
	if tok == nil {
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if tok.settled {
		return
	}
	tok.settled = true
	b := bs.m[tok.key]
	if b == nil {
		// Clean key: only a bad outcome starts tracking it.
		if out != outcomeBad {
			return
		}
		b = &breaker{}
		bs.m[tok.key] = b
	}
	if tok.gen != b.gen {
		return // stale: admitted before the last trip
	}
	if tok.probe {
		b.probing = false
		switch out {
		case outcomeGood:
			delete(bs.m, tok.key) // probe succeeded: closed and clean
		case outcomeBad:
			// Probe failed: back to open for another cooldown.
			b.state = breakerOpen
			b.openedAt = bs.now()
			b.bad++
			b.gen++
			bs.trips.Add(1)
		default:
			// Neutral probe (e.g. client cancelled): stay half-open with the
			// slot free, so the next request becomes the probe.
		}
		return
	}
	switch out {
	case outcomeBad:
		b.bad++
		if b.state == breakerClosed && b.bad >= bs.threshold {
			b.state = breakerOpen
			b.openedAt = bs.now()
			b.gen++
			bs.trips.Add(1)
		}
	case outcomeGood:
		if b.state == breakerClosed {
			delete(bs.m, tok.key)
		}
	default:
		// Neutral: no signal either way.
	}
}

// snapshot renders the /v1/stats view, tripped keys sorted for
// deterministic output.
func (bs *breakerSet) snapshot() BreakerStats {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	out := BreakerStats{}
	for k, b := range bs.m {
		switch b.state {
		case breakerOpen:
			out.Open++
		case breakerHalfOpen:
			out.HalfOpen++
		default:
			out.Closed++
			continue
		}
		out.Tripped = append(out.Tripped, BreakerInfo{
			Key:            k.mapping + "|" + k.solver.String() + "|" + k.resolution.String() + "|" + k.fault,
			State:          b.state.String(),
			ConsecutiveBad: b.bad,
		})
	}
	sort.Slice(out.Tripped, func(i, j int) bool { return out.Tripped[i].Key < out.Tripped[j].Key })
	return out
}
