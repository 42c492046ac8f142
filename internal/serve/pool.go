package serve

import (
	"container/list"
	"sync"

	"repro/internal/cosim"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// poolKey selects a session pool: everything that shapes a System (the
// resolution and the fault-derated design) and the sessions built on it
// (the solver). The mapping and the operating point are per-request
// inputs of a non-carrying session, so every proposal class with the same
// poolKey solves on the same pool.
type poolKey struct {
	solver     thermal.Solver
	resolution experiments.Resolution
	fault      string
}

// pool is one shared System and its idle sessions. free and evicted are
// guarded by the owning sessionPools' lock.
type pool struct {
	key     poolKey
	sys     *cosim.System
	free    []*cosim.Session
	evicted bool
}

// sessionPools is the LRU of session pools. A session is owned by one
// request between acquire and release, so nothing else locks it. The cap
// bounds both the idle sessions and the pools (each pool pins a System);
// going over it evicts the least recently used pools.
type sessionPools struct {
	mu    sync.Mutex
	cap   int
	byKey map[poolKey]*list.Element
	lru   *list.List // front = most recently used; element values are *pool
	idle  int
	stats *counters
	// newSession builds a session on a pool's System. It is the one seam
	// tests wrap to hand out sabotaged sessions.
	newSession func(poolKey, *cosim.System) *cosim.Session
}

func newSessionPools(capacity int, newSession func(poolKey, *cosim.System) *cosim.Session, stats *counters) *sessionPools {
	return &sessionPools{cap: capacity, byKey: make(map[poolKey]*list.Element), lru: list.New(),
		stats: stats, newSession: newSession}
}

// newPoolSystem builds the System of a (resolution, fault) pair: the
// served floorplan at that resolution with the fault-derated design.
func newPoolSystem(key poolKey) (*cosim.System, error) {
	sc, err := faults.Parse(key.fault)
	if err != nil {
		return nil, err
	}
	return experiments.NewSystem(sc.ApplyDesign(thermosyphon.DefaultDesign(), serveLoopName, serveBladeName), key.resolution)
}

// getLocked returns the key's pool as the most recently used one,
// creating it on first use. A new pool shares the System of any live pool
// at the same resolution and fault, and builds one only if there is none.
// The caller holds mu; a System build stalls other acquires, which is
// paid once per (resolution, fault).
func (ps *sessionPools) getLocked(key poolKey) (*pool, error) {
	if el, ok := ps.byKey[key]; ok {
		ps.lru.MoveToFront(el)
		return el.Value.(*pool), nil
	}
	p := &pool{key: key}
	for el := ps.lru.Front(); el != nil && p.sys == nil; el = el.Next() {
		if o := el.Value.(*pool); o.key.resolution == key.resolution && o.key.fault == key.fault {
			p.sys = o.sys
		}
	}
	if p.sys == nil {
		sys, err := newPoolSystem(key)
		if err != nil {
			return nil, err
		}
		p.sys = sys
	}
	ps.byKey[key] = ps.lru.PushFront(p)
	ps.evictLocked(p)
	return p, nil
}

// acquire pops an idle session of the key's pool, or builds one on the
// pool's System. The caller owns the session until it calls release.
func (ps *sessionPools) acquire(key poolKey) (*pool, *cosim.Session, error) {
	ps.mu.Lock()
	p, err := ps.getLocked(key)
	if err != nil {
		ps.mu.Unlock()
		return nil, nil, err
	}
	if n := len(p.free); n > 0 {
		ses := p.free[n-1]
		p.free = p.free[:n-1]
		ps.idle--
		ps.mu.Unlock()
		ps.stats.sessionReuses.Add(1)
		return p, ses, nil
	}
	ps.mu.Unlock()
	ps.stats.sessionBuilds.Add(1)
	return p, ps.newSession(key, p.sys), nil
}

// release hands a session back to its pool. A poisoned session (its
// solve failed or panicked) is closed and never returned, so no later
// request inherits what a failed solve left behind. So is a session
// whose pool was evicted or drained meanwhile, or one the cap has no room
// for once every other pool has been evicted.
func (ps *sessionPools) release(p *pool, ses *cosim.Session, poisoned bool) {
	ps.mu.Lock()
	keep := !poisoned && !p.evicted
	if keep {
		ps.evictLocked(p)
		keep = ps.idle < ps.cap
	}
	if keep {
		p.free = append(p.free, ses)
		ps.idle++
	}
	ps.mu.Unlock()
	if !keep {
		ps.stats.evictions.Add(1)
		ses.Close()
	}
}

// evictLocked retires least recently used pools other than keep until
// the pools fit the cap and one more idle session does too. An evicted
// pool's idle sessions close now; its sessions still in use close on
// release. The caller holds mu.
func (ps *sessionPools) evictLocked(keep *pool) {
	for el := ps.lru.Back(); el != nil && (ps.idle >= ps.cap || ps.lru.Len() > ps.cap); {
		prev := el.Prev()
		if p := el.Value.(*pool); p != keep {
			ps.lru.Remove(el)
			delete(ps.byKey, p.key)
			ps.stats.evictions.Add(int64(len(p.free)))
			ps.retireLocked(p)
		}
		el = prev
	}
}

// retireLocked marks a pool evicted and closes its idle sessions.
func (ps *sessionPools) retireLocked(p *pool) {
	p.evicted = true
	ps.idle -= len(p.free)
	for _, ses := range p.free {
		ses.Close()
	}
	p.free = nil
}

// closeAll retires every pool; sessions still in use close on release.
func (ps *sessionPools) closeAll() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for el := ps.lru.Front(); el != nil; el = el.Next() {
		ps.retireLocked(el.Value.(*pool))
	}
	ps.lru.Init()
	ps.byKey = make(map[poolKey]*list.Element)
}

// len returns the number of idle pooled sessions.
func (ps *sessionPools) len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.idle
}
