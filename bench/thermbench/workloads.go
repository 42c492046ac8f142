package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// harness is one benchmark run's shared state.
type harness struct {
	ctx     context.Context
	dir     string // per-run directory for daemon logs and checkpoints
	bin     string // the thermservd binary
	seed    int64
	seconds time.Duration
	trace   bool
	conns   int
	client  *http.Client
	out     io.Writer
	peak    peakMark
}

// peakMark holds the daemon's VmHWM read at the end of a fixed amount of
// work, the same on every host: the open loop, the first checkpoint or
// the first ladder. The daemon's peak grows with the work it did (the
// memo fills, every checkpoint and ladder adds to it), and the closed
// loops do as much work as the host's speed allows. The first read wins;
// measure reads at the end when no mark was set.
type peakMark struct {
	once sync.Once
	mb   float64
	at   string
	err  error
}

func (p *peakMark) note(d *daemon, at string) {
	p.once.Do(func() {
		p.mb, p.err = d.peakRSSMB()
		p.at = at
	})
}

// A run boots and primes a daemon at least minBoots times, and more
// while the boots so far took under bootBudget in all, up to maxBoots:
// a boot of a few milliseconds needs many samples for a steady median.
// setup_s is the median, and the last daemon is the one measured.
const (
	minBoots   = 3
	maxBoots   = 15
	bootBudget = time.Second
)

// In-process re-solves of the daemon's steady answers, run after every
// steady workload.
const (
	hotReplayKeys = 16 // hot pool keys
	novelReplayN  = 50 // open-loop proposals, a seeded sample
)

var workloads = []struct {
	name string
	run  func(h *harness, r *result) error
}{
	{"steady-hot", runSteadyHot},
	{"steady-novel", runSteadyNovel},
	{"transient-stream", runTransientStream},
	{"fleet-ladder", runFleetLadder},
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

func marshalEach[T any](xs []T) [][]byte {
	out := make([][]byte, len(xs))
	for i, x := range xs {
		out[i] = mustJSON(x)
	}
	return out
}

// boot starts daemons with the extra flags one after another, timing each
// from spawn until prime returns, and reports the median as setup_s.
// Every daemon but the last is drained and stopped; the last is returned
// running.
func (h *harness) boot(r *result, extra []string, prime func(d *daemon) error) (*daemon, error) {
	var times []float64
	var spent time.Duration
	for round := 0; ; round++ {
		t0 := time.Now()
		d, err := startDaemon(h.bin, filepath.Join(h.dir, fmt.Sprintf("%s-%d.log", r.workload, round)), extra...)
		if err != nil {
			return nil, err
		}
		if err := prime(d); err != nil {
			d.kill()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		times = append(times, took.Seconds())
		spent += took
		if round+1 == maxBoots || (round+1 >= minBoots && spent >= bootBudget) {
			r.set("setup_s", median(times), "s", fmt.Sprintf("median of %d boots", len(times)))
			return d, nil
		}
		h.stop(r, d)
	}
}

// stop drains the daemon; a failed drain is a failed check.
func (h *harness) stop(r *result, d *daemon) {
	r.attempted++
	if err := d.stop(); err != nil {
		r.fail("drain: %v", err)
	}
	h.client.CloseIdleConnections()
}

// post sends one request to the daemon, expecting want.
func (h *harness) post(d *daemon, path string, body []byte, want int) ([]byte, error) {
	return expect(h.ctx, h.client, http.MethodPost, d.base+path, body, want)
}

// measure runs the measured phases between two /v1/stats snapshots and
// reports the end-to-end metrics and the client and serve layers'.
// service_p10_ms and capacity come from the closed loop; p50 and p99 from
// the open loop when there is one, else from the closed loop too;
// peak_rss_mb from h.peak.
func (h *harness) measure(r *result, d *daemon, open, closed func() *phase) error {
	before, err := d.stats(h.ctx, h.client)
	if err != nil {
		return err
	}
	var o *phase
	if open != nil {
		o = open()
		r.absorb("open loop", o)
		h.peak.note(d, "open loop")
	}
	c := closed()
	r.absorb("closed loop", c)
	h.peak.note(d, "closed loop")
	if h.peak.err != nil {
		return h.peak.err
	}
	after, err := d.stats(h.ctx, h.client)
	if err != nil {
		return err
	}

	lat, kind := c, "closed loop"
	if o != nil {
		lat, kind = o, "open loop"
	}
	note := fmt.Sprintf("%s, n=%d", kind, len(lat.lat))
	r.set("p50_ms", median(lat.lat), "ms", note)
	if len(lat.lat) >= 1000 {
		r.set("p99_ms", quantile(lat.lat, 0.99), "ms", note)
	}
	r.set("service_p10_ms", quantile(c.lat, 0.1), "ms", fmt.Sprintf("closed loop, n=%d", len(c.lat)))
	r.set("capacity_rps", float64(c.completed())/c.elapsed.Seconds(), "1/s",
		fmt.Sprintf("closed loop, %d in %.1f s", c.completed(), c.elapsed.Seconds()))
	r.set("peak_rss_mb", h.peak.mb, "MB", "daemon VmHWM after the "+h.peak.at)

	r.set("client.gen_lag_p99_ms", quantile(lat.lag, 0.99), "ms", kind+": send time past due")
	r.set("client.backlog_max", float64(lat.backlogMax), "count", "arrivals waiting for a connection")
	attempted := int64(c.attempted)
	if o != nil {
		attempted += int64(o.attempted)
	}
	steady := after.SteadyRequests - before.SteadyRequests
	reuses := after.SessionReuses - before.SessionReuses
	builds := after.SessionBuilds - before.SessionBuilds
	r.set("serve.memo_hit_share", ratio(after.MemoHits-before.MemoHits, steady), "share", "of steady requests")
	r.set("serve.lease_reuse_share", ratio(reuses, reuses+builds), "share", "of lease acquisitions")
	r.set("serve.session_builds", float64(builds), "count", "")
	r.set("serve.rejected_share", ratio(after.Rejected-before.Rejected, attempted), "share", "429s of requests")
	deduped := after.StepsDeduped - before.StepsDeduped
	r.set("serve.steps_deduped", float64(deduped), "count", "must be 0")
	if deduped != 0 {
		r.fail("%d step chunks were answered from the dedup cache", deduped)
	}
	if n := after.PanicsRecovered - before.PanicsRecovered; n != 0 {
		r.fail("daemon recovered %d handler panics", n)
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// dieMaxOf reads die_max_c from a steady or transient-status body.
func dieMaxOf(body []byte) (float64, error) {
	var v struct {
		DieMaxC *float64 `json:"die_max_c"`
	}
	if err := json.Unmarshal(body, &v); err != nil || v.DieMaxC == nil {
		return 0, fmt.Errorf("no die_max_c in %.80q", body)
	}
	return *v.DieMaxC, nil
}

// checkReplays re-solves each proposal in-process and requires the die
// hot spot of the daemon's answer to match bit for bit. A nil answer was
// a failed request, already counted, and is skipped.
func checkReplays(h *harness, r *result, info daemonInfo, reqs []serve.SteadyRequest, answers [][]byte) error {
	rep := newSteadyReplay(info)
	defer rep.close()
	checked, matched := 0, 0
	for i, req := range reqs {
		if answers[i] == nil {
			continue
		}
		want, err := dieMaxOf(answers[i])
		if err != nil {
			return err
		}
		got, err := rep.solve(h.ctx, req)
		if err != nil {
			return err
		}
		checked++
		if math.Float64bits(got) == math.Float64bits(want) {
			matched++
		} else {
			r.fail("proposal %s: in-process replay differs from the daemon", mustJSON(req))
		}
	}
	r.set("cosim.replay_match", ratio(int64(matched), int64(checked)), "share",
		fmt.Sprintf("die_max_c bit-identical to replay, n=%d", checked))
	return nil
}

// runSteadyHot: a 64-proposal pool primed during set-up, then Zipf-skewed
// traffic, so nearly every request is a memo hit.
func runSteadyHot(h *harness, r *result) error {
	keys := hotKeys(h.seed)
	bodies := marshalEach(keys)
	primed := make([][]byte, len(keys))
	var firstBoot [][]byte
	d, err := h.boot(r, nil, func(d *daemon) error {
		r.attempted += len(bodies)
		if err := parallel(h.conns, len(bodies), func(i int) error {
			out, err := h.post(d, "/v1/steady", bodies[i], http.StatusOK)
			primed[i] = out
			return err
		}); err != nil {
			return err
		}
		if firstBoot == nil {
			firstBoot = append([][]byte(nil), primed...)
			return nil
		}
		for i := range primed {
			if !bytes.Equal(primed[i], firstBoot[i]) {
				r.fail("hot key %d: a restarted daemon answers different bytes", i)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer d.kill()

	hit := func(k int) error {
		out, err := h.post(d, "/v1/steady", bodies[k], http.StatusOK)
		if err == nil && !bytes.Equal(out, primed[k]) {
			err = fmt.Errorf("hot key %d: body differs from its priming body", k)
		}
		return err
	}
	openDur := h.seconds / 2
	sched := poissonSchedule(rngFor(h.seed, "hot-arrivals"), 1000, openDur)
	picks := hotPicks(rngFor(h.seed, "hot-picks"), len(sched))
	var mu sync.Mutex
	z := hotZipf(rngFor(h.seed, "hot-closed-picks"))
	if err := h.measure(r, d,
		func() *phase { return openLoop(h.ctx, h.conns, sched, func(i int) error { return hit(picks[i]) }) },
		func() *phase {
			return closedLoop(h.ctx, h.conns, h.seconds-openDur, func(_, _ int) error {
				mu.Lock()
				k := int(z.Uint64())
				mu.Unlock()
				return hit(k)
			})
		}); err != nil {
		return err
	}
	if h.trace {
		if err := traceHot(h, r, d, keys, bodies, primed, picks); err != nil {
			return err
		}
	}
	h.stop(r, d)

	return checkReplays(h, r, d.info, keys[:hotReplayKeys], primed[:hotReplayKeys])
}

// runSteadyNovel: every proposal is distinct, so every request is one
// coupled solve on a warm lease.
func runSteadyNovel(h *harness, r *result) error {
	leases := marshalEach(leaseKeys())
	d, err := h.boot(r, nil, func(d *daemon) error {
		r.attempted += len(leases)
		return parallel(h.conns, len(leases), func(i int) error {
			_, err := h.post(d, "/v1/steady", leases[i], http.StatusOK)
			return err
		})
	})
	if err != nil {
		return err
	}
	defer d.kill()

	gen := newProposals(h.seed, "novel", 0)
	openDur := h.seconds / 2
	sched := poissonSchedule(rngFor(h.seed, "novel-arrivals"), 25, openDur)
	openReqs := gen.take(len(sched))
	openBodies := marshalEach(openReqs)
	answers := make([][]byte, len(sched))
	var genMu sync.Mutex
	if err := h.measure(r, d,
		func() *phase {
			return openLoop(h.ctx, h.conns, sched, func(i int) error {
				out, err := h.post(d, "/v1/steady", openBodies[i], http.StatusOK)
				answers[i] = out
				return err
			})
		},
		func() *phase {
			return closedLoop(h.ctx, h.conns, h.seconds-openDur, func(_, _ int) error {
				genMu.Lock()
				body := mustJSON(gen.next())
				genMu.Unlock()
				_, err := h.post(d, "/v1/steady", body, http.StatusOK)
				return err
			})
		}); err != nil {
		return err
	}
	if h.trace {
		if err := traceNovel(h, r, d, leases); err != nil {
			return err
		}
	}
	h.stop(r, d)

	var reqs []serve.SteadyRequest
	var sampled [][]byte
	for _, i := range rngFor(h.seed, "novel-sample").Perm(len(sched))[:min(novelReplayN, len(sched))] {
		reqs, sampled = append(reqs, openReqs[i]), append(sampled, answers[i])
	}
	return checkReplays(h, r, d.info, reqs, sampled)
}

// runTransientStream: four medium-resolution blades stepped in
// seq-numbered chunks on a closed loop, with periodic checkpoints.
func runTransientStream(h *harness, r *result) error {
	regs := make([][]byte, len(bladeBenchmarks))
	for i, b := range bladeBenchmarks {
		regs[i] = mustJSON(bladeRegistration(bladeName(i), b))
	}
	d, err := h.boot(r, []string{"-checkpoint", filepath.Join(h.dir, "ckpt.json")}, func(d *daemon) error {
		r.attempted += len(regs)
		return parallel(h.conns, len(regs), func(i int) error {
			_, err := h.post(d, "/v1/transient", regs[i], http.StatusCreated)
			return err
		})
	})
	if err != nil {
		return err
	}
	defer d.kill()

	walks := make([]*loadWalk, len(regs))
	for i := range walks {
		walks[i] = newLoadWalk(h.seed, "walk/"+bladeName(i))
	}
	step := func(b int) error {
		out, err := h.post(d, "/v1/transient/"+bladeName(b)+"/step", mustJSON(walks[b].chunk()), http.StatusOK)
		if err != nil {
			return err
		}
		var resp struct {
			Samples []serve.TransientSample `json:"samples"`
		}
		if err := json.Unmarshal(out, &resp); err != nil || len(resp.Samples) != chunkSteps {
			return fmt.Errorf("blade %d: malformed step response %.80q", b, out)
		}
		return nil
	}
	ckpt := &phase{}
	if err := h.measure(r, d, nil, func() *phase {
		// POST /v1/checkpoint after every 100th chunk, from its own
		// goroutine so its latency stays out of the chunks'; it shares the
		// clients' connections.
		var chunks atomic.Int64
		due := make(chan struct{}, 1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range due {
				t0 := time.Now()
				_, err := h.post(d, "/v1/checkpoint", nil, http.StatusOK)
				ckpt.record(time.Since(t0), 0, err)
				if err == nil {
					h.peak.note(d, "first checkpoint")
				}
			}
		}()
		// Client c steps blades c, c+conns, … in turn.
		p := closedLoop(h.ctx, h.conns, h.seconds, func(c, k int) error {
			var mine []int
			for b := c; b < len(walks); b += h.conns {
				mine = append(mine, b)
			}
			err := step(mine[k%len(mine)])
			if chunks.Add(1)%100 == 0 {
				select {
				case due <- struct{}{}:
				default: // one is already pending
				}
			}
			return err
		})
		close(due)
		<-done
		return p
	}); err != nil {
		return err
	}
	r.absorb("checkpoint", ckpt)
	if len(ckpt.lat) > 0 {
		r.set("serve.checkpoint_ms", median(ckpt.lat), "ms", fmt.Sprintf("POST /v1/checkpoint, n=%d", len(ckpt.lat)))
	}

	// Every blade must sit at exactly the simulated time of the chunks it
	// was sent.
	status := make([]serve.TransientStatus, len(walks))
	for b, w := range walks {
		r.attempted++
		out, err := expect(h.ctx, h.client, http.MethodGet, d.base+"/v1/transient/"+bladeName(b), nil, http.StatusOK)
		if err == nil {
			err = json.Unmarshal(out, &status[b])
		}
		if err != nil {
			r.fail("blade %d status: %v", b, err)
			continue
		}
		want := 0.0
		for i := int64(0); i < w.seq*chunkSteps; i++ {
			want += stepDtS
		}
		if status[b].TimeS != want {
			r.fail("blade %d: time_s %v after %d chunks, want %v", b, status[b].TimeS, w.seq, want)
		}
	}
	if h.trace {
		if err := traceTransient(h, r, d); err != nil {
			return err
		}
	}
	h.stop(r, d)

	// Replay every blade's whole trace in-process, one blade per goroutine.
	matched := make([]bool, len(walks))
	if err := parallel(h.conns, len(walks), func(b int) error {
		rp, err := newTransientReplay(d.info, bladeBenchmarks[b], nil)
		if err != nil {
			return err
		}
		defer rp.close()
		w := newLoadWalk(h.seed, "walk/"+bladeName(b))
		for i := int64(0); i < walks[b].seq; i++ {
			if err := rp.chunk(w.chunk()); err != nil {
				return err
			}
		}
		die, err := rp.sim.DieMax()
		if err != nil {
			return err
		}
		matched[b] = math.Float64bits(die) == math.Float64bits(status[b].DieMaxC) &&
			math.Float64bits(rp.sim.Time()) == math.Float64bits(status[b].TimeS)
		return nil
	}); err != nil {
		return err
	}
	n := 0
	for b, ok := range matched {
		if ok {
			n++
		} else {
			r.fail("blade %d: in-process replay differs from the daemon", b)
		}
	}
	r.set("cosim.replay_match", float64(n)/float64(len(walks)), "share", "blades bit-identical to replay")
	return nil
}

var fleetBody = []byte(`{"resolution":"coarse"}`)

// runFleetLadder: the 32/256/1000-blade datacenter ladder, one request at
// a time.
func runFleetLadder(h *harness, r *result) error {
	d, err := h.boot(r, nil, func(d *daemon) error {
		r.attempted++
		out, err := expect(h.ctx, h.client, http.MethodGet, d.base+"/v1/experiments", nil, http.StatusOK)
		if err == nil && !bytes.Contains(out, []byte(`"datacenter"`)) {
			err = fmt.Errorf("the experiment catalog lacks datacenter")
		}
		return err
	})
	if err != nil {
		return err
	}
	defer d.kill()

	var bodies [][]byte
	if err := h.measure(r, d, nil, func() *phase {
		return closedLoop(h.ctx, 1, h.seconds, func(_, _ int) error {
			out, err := h.post(d, "/v1/experiments/datacenter", fleetBody, http.StatusOK)
			if err == nil {
				bodies = append(bodies, out)
				h.peak.note(d, "first ladder")
			}
			return err
		})
	}); err != nil {
		return err
	}
	h.stop(r, d)
	if len(bodies) == 0 {
		return nil // the failed requests are already counted
	}
	for i, b := range bodies[1:] {
		r.attempted++
		if !bytes.Equal(b, bodies[0]) {
			r.fail("fleet request %d: body differs from the first", i+1)
		}
	}
	r.attempted++
	if err := checkLadderConverged(bodies[0]); err != nil {
		r.fail("%v", err)
	}
	if !h.trace {
		return nil
	}
	return traceFleet(h, r, d.info, bodies[0])
}

// checkLadderConverged requires every rung of the datacenter Result's
// ladder table to report converged.
func checkLadderConverged(body []byte) error {
	var res struct {
		Tables []struct {
			Name    string `json:"name"`
			Columns []struct {
				Name string `json:"name"`
			} `json:"columns"`
			Rows [][]any `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("datacenter result: %w", err)
	}
	for _, t := range res.Tables {
		if t.Name != "ladder" {
			continue
		}
		col := -1
		for i, c := range t.Columns {
			if c.Name == "converged" {
				col = i
			}
		}
		if col < 0 || len(t.Rows) == 0 {
			return fmt.Errorf("datacenter ladder has no converged column or rows")
		}
		for _, row := range t.Rows {
			if conv, _ := row[col].(bool); !conv {
				return fmt.Errorf("datacenter rung %v did not converge", row[0])
			}
		}
		return nil
	}
	return fmt.Errorf("datacenter result has no ladder table")
}
