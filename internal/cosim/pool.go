package cosim

import (
	"sync"

	"repro/internal/thermosyphon"
)

// Pool hands out solve sessions on one System, one free list per
// thermosyphon design. Get takes an idle session of the design or builds
// one; Put returns it for the next Get of that design. A batch of
// independent solves (the points of a sweep, the blade classes of a
// fleet) thus builds at most as many sessions per design as it holds at
// once, however many solves it runs. Sessions of every design share the
// System: a design other than the System's is applied with WithDesign.
//
// A Pool is safe for concurrent use; each session it hands out has one
// holder at a time. Close releases the worker team of every session the
// pool has built, whether idle or still held.
type Pool struct {
	sys  *System
	opts []SessionOption

	mu sync.Mutex
	// idle holds the free sessions per design; a design has a key once
	// it has been validated.
	idle map[thermosyphon.Design][]*Session
	all  []*Session // every session built, for Close
}

// NewPool returns an empty pool of sessions on the system; opts
// configure every session it builds.
func (s *System) NewPool(opts ...SessionOption) *Pool {
	return &Pool{sys: s, opts: opts, idle: make(map[thermosyphon.Design][]*Session)}
}

// Get takes an idle session solving with design d, or builds one. The
// first Get of a design validates it, so an invalid design is an error,
// never a solve.
func (p *Pool) Get(d thermosyphon.Design) (*Session, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	free, seen := p.idle[d]
	if n := len(free); n > 0 {
		p.idle[d] = free[:n-1]
		return free[n-1], nil
	}
	if !seen {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		p.idle[d] = nil
	}
	opts := p.opts
	if d != p.sys.Design {
		opts = append(opts[:len(opts):len(opts)], WithDesign(d))
	}
	ses := p.sys.NewSession(opts...)
	p.all = append(p.all, ses)
	return ses, nil
}

// Put returns a session taken by Get to the free list of its design.
func (p *Pool) Put(ses *Session) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := *ses.Design()
	p.idle[d] = append(p.idle[d], ses)
}

// Close releases the worker team of every session the pool has built.
// The sessions stay usable, solving serially (see Session.Close). The
// returned error is always nil.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ses := range p.all {
		ses.Close()
	}
	return nil
}
