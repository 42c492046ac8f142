package main

import (
	"context"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// phase holds one measured phase's samples.
type phase struct {
	lat        []float64 // ms per completed request
	lag        []float64 // ms each request was sent late
	backlogMax int       // most arrivals ever waiting for a free connection
	attempted  int
	failed     int
	errs       []string // the first few failures
	elapsed    time.Duration
}

func (p *phase) completed() int { return p.attempted - p.failed }

func (p *phase) record(lat, lag time.Duration, err error) {
	p.attempted++
	p.lag = append(p.lag, ms(lag))
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err.Error())
		}
		return
	}
	p.lat = append(p.lat, ms(lat))
}

func (p *phase) merge(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.lag = append(p.lag, q.lag...)
	p.attempted += q.attempted
	p.failed += q.failed
	for _, e := range q.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop sends arrival i at its due offset sched[i] from the phase
// start, over conns connections. An arrival that finds every connection
// busy waits in a FIFO instead of being dropped, and its latency runs
// from its due time, so a stall is charged to every request it delays.
// Arrivals not yet due when ctx ends are never sent.
func openLoop(ctx context.Context, conns int, sched []time.Duration, send func(i int) error) *phase {
	// Sized to the number of sends, so the generator never blocks on it.
	queue := make(chan int, len(sched))
	lat := make([]time.Duration, len(sched))
	lag := make([]time.Duration, len(sched))
	errs := make([]error, len(sched))
	backlogMax, sent := 0, 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				errs[i] = send(i)
				lat[i] = time.Since(start) - sched[i]
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pace(ctx, start, sched, func(i int, late time.Duration) {
			lag[i] = late
			if n := len(queue); n > backlogMax {
				backlogMax = n
			}
			queue <- i
			sent++
		})
		close(queue)
	}()
	wg.Wait()
	p := &phase{backlogMax: backlogMax, elapsed: time.Since(start)}
	for i := range sched[:sent] {
		p.record(lat[i], lag[i], errs[i])
	}
	return p
}

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pace calls fire(i, lateness) at start+sched[i] for every i, in order.
// It sleeps with nanosleep on a locked OS thread whose timer slack is
// 1 µs: the Go runtime's timers round sub-millisecond sleeps up to about
// a millisecond, which at 1000 req/s would be most of the latency being
// measured. The thread is never unlocked, so the runtime retires it, and
// its slack setting, when the calling goroutine exits.
func pace(ctx context.Context, start time.Time, sched []time.Duration, fire func(i int, late time.Duration)) {
	runtime.LockOSThread()
	// Best effort: without it the sleeps are only less precise, and the
	// reported generator lag shows it.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	for i, at := range sched {
		if ctx.Err() != nil {
			return
		}
		due := start.Add(at)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR just re-checks the clock
		}
		fire(i, time.Since(due))
	}
}

// closedLoop runs conns clients that each send their next request as
// soon as the previous one completes, for dur and at least one request
// per client. send receives the client index and the client's request
// count so far. A request's lag is the time its client held the
// connection idle between the previous response and this request. The
// clients stop early when ctx ends.
func closedLoop(ctx context.Context, conns int, dur time.Duration, send func(client, k int) error) *phase {
	parts := make([]*phase, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &phase{}
			prev := time.Now()
			for k := 0; ctx.Err() == nil && (k == 0 || time.Since(start) < dur); k++ {
				t0 := time.Now()
				err := send(c, k)
				end := time.Now()
				p.record(end.Sub(t0), t0.Sub(prev), err)
				prev = end
			}
			parts[c] = p
		}(c)
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start)}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// parallel runs fn(0..n-1) on conns goroutines and returns the first
// error.
func parallel(conns, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += conns {
				errs[i] = fn(i)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
