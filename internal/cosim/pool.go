package cosim

import (
	"sync"

	"repro/internal/thermosyphon"
)

// maxIdle caps the idle sessions of one pool, across designs. Past it,
// Put closes the oldest idle session, so a pool fed an unbounded stream
// of designs holds at most maxIdle sessions besides the ones in use.
const maxIdle = 64

// Pool hands out solve sessions on one System, each solving with a
// thermosyphon design. Get takes an idle session of the design or builds
// one; Put returns it for the next Get of that design. A batch of
// independent solves (the points of a sweep, the blade classes of a
// fleet) thus builds at most as many sessions per design as it holds at
// once, however many solves it runs. Sessions of every design share the
// System: a design other than the System's is applied with WithDesign.
//
// A Pool is safe for concurrent use; each session it hands out has one
// holder at a time. Close releases the worker team of every live session
// the pool has built, whether idle or still held.
type Pool struct {
	sys  *System
	opts []SessionOption

	mu sync.Mutex
	// idle holds the free sessions of every design in Put order; Get
	// takes the newest one of its design.
	idle []*Session
	// live holds every session built and neither discarded nor evicted,
	// for Close.
	live  map[*Session]struct{}
	stats PoolStats
}

// PoolStats counts a pool's work since it was built. A Get reuses an idle
// session or builds one; Evictions counts the sessions closed before
// Close, by Discard or by the idle cap; Idle is the free sessions now.
type PoolStats struct {
	Builds, Reuses, Evictions int64
	Idle                      int
}

// NewPool returns an empty pool of sessions on the system; opts
// configure every session it builds.
func (s *System) NewPool(opts ...SessionOption) *Pool {
	return &Pool{sys: s, opts: opts, live: make(map[*Session]struct{})}
}

// Get takes the most recently returned idle session solving with design
// d, or builds one. A design is validated before a session is built for
// it, so an invalid design is an error, never a solve.
func (p *Pool) Get(d thermosyphon.Design) (*Session, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if ses := p.idle[i]; *ses.Design() == d {
			p.idle = append(p.idle[:i], p.idle[i+1:]...)
			p.stats.Reuses++
			return ses, nil
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	opts := p.opts
	if d != p.sys.Design {
		opts = append(opts[:len(opts):len(opts)], WithDesign(d))
	}
	ses := p.sys.NewSession(opts...)
	p.live[ses] = struct{}{}
	p.stats.Builds++
	return ses, nil
}

// Put returns a session taken by Get to the pool. When maxIdle sessions
// are idle already, the oldest of them is closed to make room.
func (p *Pool) Put(ses *Session) {
	p.mu.Lock()
	var evicted *Session
	if len(p.idle) >= maxIdle {
		evicted = p.idle[0]
		p.idle = append(p.idle[:0], p.idle[1:]...)
		p.forgetLocked(evicted)
	}
	p.idle = append(p.idle, ses)
	p.mu.Unlock()
	if evicted != nil {
		evicted.Close()
	}
}

// Discard closes a session taken by Get instead of returning it, so a
// session a failed or panicked solve left behind never serves another
// Get.
func (p *Pool) Discard(ses *Session) {
	p.mu.Lock()
	p.forgetLocked(ses)
	p.mu.Unlock()
	ses.Close()
}

// forgetLocked drops a session the pool closes before Close. The caller
// holds mu.
func (p *Pool) forgetLocked(ses *Session) {
	delete(p.live, ses)
	p.stats.Evictions++
}

// Stats returns the pool's counters and its idle sessions now.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Idle = len(p.idle)
	return st
}

// Close releases the worker team of every live session the pool has
// built and empties the pool; a later Get builds afresh. The sessions
// stay usable, solving serially (see Session.Close). The returned error
// is always nil.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for ses := range p.live {
		ses.Close()
	}
	p.live = make(map[*Session]struct{})
	p.idle = nil
	return nil
}
