package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/thermosyphon"
)

// A traced run (-trace 1) adds a pass after the measured phases that
// times each layer from the outside. Every traced input goes to the idle
// daemon over one connection, then through a fresh in-process serve
// handler configured like the daemon, then straight into the cosim layer;
// the three run back to back, so each input's timings see the same
// machine conditions and can be subtracted. Counts come from /v1/stats
// deltas and Session.SolverStats. The end-to-end metrics never come from
// this pass.

// Traced-pass sizes. steady-hot's requests are cheap, so it sends 200
// inputs; the others send as many as keep a traced run within a few
// seconds of an untraced one.
const (
	hotTraceN       = 200
	novelTraceN     = 50
	transientTraceN = 50
)

// pairTimes are a traced pass's latencies (ms): e2e through the daemon
// and the in-process handler's, for each input's first send and, when
// it is repeated, for the repeat.
type pairTimes struct {
	e2e, handler           []float64
	e2eAgain, handlerAgain []float64
}

// pair sends body to the daemon and through the in-process handler, and
// again to both when again is set: the repeat is a memo hit or a
// replayed chunk, whose cost is almost all network and HTTP. Daemon and
// in-process answers must match byte for byte.
func (h *harness) pair(r *result, d *daemon, p *inproc, path string, body []byte, again bool, t *pairTimes) {
	for rep := 0; rep == 0 || (again && rep == 1); rep++ {
		r.attempted++
		t0 := time.Now()
		want, err := h.post(d, path, body, http.StatusOK)
		e2e := ms(time.Since(t0))
		if err != nil {
			r.fail("traced pass: %v", err)
			return
		}
		got, dt := p.expectOK(r, path, body)
		if got == nil {
			return
		}
		if !bytes.Equal(got, want) {
			r.fail("traced pass: %s answers different bytes in-process", path)
		}
		if rep == 0 {
			t.e2e, t.handler = append(t.e2e, e2e), append(t.handler, ms(dt))
		} else {
			t.e2eAgain, t.handlerAgain = append(t.e2eAgain, e2e), append(t.handlerAgain, ms(dt))
		}
	}
}

// expectOK runs one POST through the in-process handler; a non-200 is a
// failed check and returns a nil body.
func (p *inproc) expectOK(r *result, path string, body []byte) ([]byte, time.Duration) {
	r.attempted++
	status, out, dt := p.call(http.MethodPost, path, body)
	if status != http.StatusOK {
		r.fail("in-process %s: status %d: %s", path, status, bytes.TrimSpace(out))
		return nil, 0
	}
	return out, dt
}

// noFleet records that a workload does no datacenter work.
func noFleet(r *result) {
	for _, name := range []string{"datacenter.outer_iters", "datacenter.blade_solves", "datacenter.classes"} {
		r.set(name, 0, "count", "no fleet solve in this workload")
	}
}

// traceHot primes an in-process server with the pool, re-solving the
// first keys right after their misses, then sends the first measured
// picks to both: memo hits.
func traceHot(h *harness, r *result, d *daemon, keys []serve.SteadyRequest, bodies, primed [][]byte, picks []int) error {
	p, err := newInproc(d.info)
	if err != nil {
		return err
	}
	defer p.close()
	rep := newSteadyReplay(d.info)
	defer rep.close()
	var miss, over []float64
	for k, b := range bodies {
		out, dt := p.expectOK(r, "/v1/steady", b)
		if out == nil {
			continue
		}
		miss = append(miss, ms(dt))
		if !bytes.Equal(out, primed[k]) {
			r.fail("hot key %d: in-process handler answers different bytes", k)
		}
		if k < hotReplayKeys {
			if _, err := rep.solve(h.ctx, keys[k]); err != nil {
				return err
			}
			over = append(over, ms(dt)-rep.lt.call[len(rep.lt.call)-1])
		}
	}
	var t pairTimes
	for _, k := range picks[:min(hotTraceN, len(picks))] {
		h.pair(r, d, p, "/v1/steady", bodies[k], false, &t)
	}
	hit := median(t.handler)
	r.set("serve.handler_ms", hit, "ms", fmt.Sprintf("in-process memo hit, n=%d", len(t.handler)))
	r.set("serve.miss_ms", median(miss), "ms", fmt.Sprintf("in-process priming, n=%d", len(miss)))
	r.set("serve.net_us", (median(t.e2e)-hit)*1000, "us", "serial e2e − handler, memo hits")
	r.set("serve.miss_overhead_ms", median(over), "ms", "miss handler − cosim solve")
	rep.lt.report(r, "Session.SolveSteady of pool keys")
	noFleet(r)
	return nil
}

// traceNovel primes an in-process server's leases like the daemon's, then
// sends proposals no measured request used to both, each twice (a miss,
// then a hit), and re-solves each on a session.
func traceNovel(h *harness, r *result, d *daemon, leases [][]byte) error {
	p, err := newInproc(d.info)
	if err != nil {
		return err
	}
	defer p.close()
	for _, b := range leases {
		if out, _ := p.expectOK(r, "/v1/steady", b); out == nil {
			return fmt.Errorf("in-process lease priming failed")
		}
	}
	rep := newSteadyReplay(d.info)
	defer rep.close()
	var t pairTimes
	for _, req := range newProposals(h.seed, "novel-trace", 1).take(novelTraceN) {
		h.pair(r, d, p, "/v1/steady", mustJSON(req), true, &t)
		if _, err := rep.solve(h.ctx, req); err != nil {
			return err
		}
	}
	r.set("serve.handler_ms", median(t.handler), "ms", fmt.Sprintf("in-process miss, n=%d", len(t.handler)))
	netUS := (median(t.e2eAgain) - median(t.handlerAgain)) * 1000
	r.set("serve.net_us", netUS, "us", "serial e2e − handler, the same proposals as memo hits")
	rep.lt.report(r, "Session.SolveSteady")
	account(h.out, r, t.e2e, netUS, t.handler, &rep.lt)
	noFleet(r)
	return nil
}

// traceTransient registers a fresh blade on the daemon and in-process and
// streams the same chunks to both, each twice (the repeat is answered
// from the seq cache), and steps a TransientSim alongside.
func traceTransient(h *harness, r *result, d *daemon) error {
	p, err := newInproc(d.info)
	if err != nil {
		return err
	}
	defer p.close()
	reg := mustJSON(bladeRegistration("trace", bladeBenchmarks[0]))
	r.attempted += 2
	if _, err := h.post(d, "/v1/transient", reg, http.StatusCreated); err != nil {
		return err
	}
	if status, out, _ := p.call(http.MethodPost, "/v1/transient", reg); status != http.StatusCreated {
		return fmt.Errorf("in-process registration: status %d: %s", status, out)
	}
	lt := &layerTimes{}
	rp, err := newTransientReplay(d.info, bladeBenchmarks[0], lt)
	if err != nil {
		return err
	}
	defer rp.close()
	var t pairTimes
	w := newLoadWalk(h.seed, "trace-walk")
	for i := 0; i < transientTraceN; i++ {
		chunk := w.chunk()
		h.pair(r, d, p, "/v1/transient/trace/step", mustJSON(chunk), true, &t)
		if err := rp.chunk(chunk); err != nil {
			return err
		}
	}
	r.set("serve.handler_ms", median(t.handler), "ms", fmt.Sprintf("in-process step chunk, n=%d", len(t.handler)))
	netUS := (median(t.e2eAgain) - median(t.handlerAgain)) * 1000
	r.set("serve.net_us", netUS, "us", "serial e2e − handler, the same chunks replayed from the seq cache")
	lt.report(r, fmt.Sprintf("%d TransientSim steps", chunkSteps))
	account(h.out, r, t.e2e, netUS, t.handler, lt)
	noFleet(r)
	return nil
}

// account splits the serial request time of a traced pass. Each request
// ran in the daemon and, back to back, through the same handler in this
// process and straight into the cosim layer here. The rows are the
// network and HTTP stack (serve.net_us); the daemon's extra time over the
// in-process handler for the same request, which is how far the two
// processes' CPUs disagreed, not a layer; the serve layer (handler minus
// the cosim call); the evaporator solves (coupling passes × one timed
// evaporate); the linear solves (operator applications × the ns per
// application of an isolated solve); and the unaccounted rest of the
// cosim call. Every row is the median over the requests of that part, so
// the rows add up to the total only to within the requests' spread.
func account(w io.Writer, r *result, e2e []float64, netUS float64, handler []float64, lt *layerTimes) {
	n := len(e2e)
	if n == 0 || len(handler) != n || lt.calls() != n {
		return
	}
	net := netUS / 1000
	proc, over, evap, lin, rest := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range e2e {
		proc[i] = e2e[i] - net - handler[i]
		over[i] = handler[i] - lt.call[i]
		evap[i] = float64(lt.passes[i]) * lt.evap[i] / 1000
		lin[i] = float64(lt.applies[i]) * lt.nsPerApply[i] / 1e6
		rest[i] = lt.call[i] - evap[i] - lin[i]
	}
	r.set("serve.miss_overhead_ms", median(over), "ms", "handler − cosim call, per request")
	total := median(e2e)
	fmt.Fprintf(w, "%-17s accounting of the serial request, median %.3f ms over %d requests:\n", r.workload, total, n)
	for _, row := range []struct {
		name string
		ms   float64
	}{
		{"network + HTTP (serve.net_us)", net},
		{"daemon − in-process, same handler", median(proc)},
		{"serve layer (serve.miss_overhead_ms)", median(over)},
		{"evaporator (thermosyphon.share × call)", median(evap)},
		{"linear solves (applies × ns_per_apply)", median(lin)},
		{"unaccounted", median(rest)},
	} {
		fmt.Fprintf(w, "%-17s   %-40s %9.3f ms %6.1f %%\n", r.workload, row.name, row.ms, 100*row.ms/total)
	}
	r.set("accounting.process_share", median(proc)/total, "share", "daemon − in-process for the same request")
	r.set("accounting.unaccounted_share", median(rest)/total, "share", "cosim call − evaporator − linear solves")
}

// traceFleet times the fleet request's layers from the outside: the
// in-process handler, the ladder through experiments.ExtDatacenterScale,
// the same ladder on one worker (the serial twin of its 256-blade rung),
// and the fleet's 13 blade classes re-solved one at a time at the
// ladder's hottest supply.
func traceFleet(h *harness, r *result, info daemonInfo, daemonBody []byte) error {
	p, err := newInproc(info)
	if err != nil {
		return err
	}
	out, dt := p.expectOK(r, "/v1/experiments/datacenter", fleetBody)
	p.close()
	matches, checks := 0, 2
	if bytes.Equal(out, daemonBody) {
		matches++
	} else {
		r.fail("in-process datacenter result differs from the daemon's")
	}
	r.set("serve.handler_ms", ms(dt), "ms", "in-process datacenter experiment")

	cfg := experiments.RunConfig{Resolution: info.Res, Solver: info.Solver}
	points, err := experiments.ExtDatacenterScale(h.ctx, cfg)
	if err != nil {
		return err
	}
	var outer, solves, classes int
	var rung256 *experiments.DatacenterScalePoint
	for i, pt := range points {
		r.set(fmt.Sprintf("datacenter.solve_s.b%d", pt.Blades), pt.Wall.Seconds(), "s",
			fmt.Sprintf("%d classes × %d outer", pt.Classes, pt.OuterIterations))
		outer += pt.OuterIterations
		solves += pt.BladeSolves
		classes += pt.Classes
		if pt.Blades == 256 {
			rung256 = &points[i]
		}
	}
	r.set("datacenter.outer_iters", float64(outer), "count", "summed over the ladder")
	r.set("datacenter.blade_solves", float64(solves), "count", "summed over the ladder")
	r.set("datacenter.classes", float64(classes), "count", "summed over the ladder")
	if rung256 == nil {
		return fmt.Errorf("the datacenter ladder has no 256-blade rung")
	}

	// The serial twin: the same ladder on one worker and one thread.
	serialPoints, err := experiments.ExtDatacenterScale(h.ctx, experiments.RunConfig{
		Resolution: info.Res, Solver: info.Solver, Workers: 1, Threads: 1})
	if err != nil {
		return err
	}
	var twin *experiments.DatacenterScalePoint
	for i := range serialPoints {
		if serialPoints[i].Blades == 256 {
			twin = &serialPoints[i]
		}
	}
	if twin != nil && math.Float64bits(twin.MaxDieC) == math.Float64bits(rung256.MaxDieC) &&
		twin.OuterIterations == rung256.OuterIterations {
		matches++
	} else {
		r.fail("the serial ladder's 256-blade rung differs from the pooled one")
	}
	r.set("cosim.replay_match", float64(matches)/float64(checks), "share", "handler body and serial twin")
	if twin != nil {
		serial := twin.Wall.Seconds()
		workers := cfg.SplitBudget(rung256.Classes).Workers
		r.set("sweep.parallel_efficiency", serial/(float64(workers)*rung256.Wall.Seconds()), "share",
			fmt.Sprintf("256 blades: serial %.2f s / (%d workers × pooled %.2f s)", serial, workers, rung256.Wall.Seconds()))
	}

	supply := 0.0
	for _, pt := range points {
		supply = math.Max(supply, pt.MaxSupplyC)
	}
	rp := newSteadyReplay(info)
	defer rp.close()
	for _, name := range benchmarkNames() {
		req := serve.SteadyRequest{Benchmark: name, Idle: "POLL", WaterC: supply,
			WaterFlowKgH: thermosyphon.DefaultOperating().WaterFlowKgH}
		if _, err := rp.solve(h.ctx, req); err != nil {
			return err
		}
	}
	rp.lt.report(r, fmt.Sprintf("Session.SolveSteady of blade classes at %.2f °C supply", supply))
	return nil
}
