package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// Every input the benchmark sends is drawn here, from named PRNG streams
// of the run's seed. Streams are independent, so adding one never shifts
// another's inputs, and the same seed always yields the same bytes.

// rngFor returns the PRNG of one named stream of a seed.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// poissonSchedule returns the due offsets of a Poisson arrival process of
// the given rate (per second) over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

var (
	idleStates = []string{"POLL", "C6"}
	flowsKgH   = []float64{5, 7, 9}
)

// benchmarkNames lists the 13 PARSEC workloads of the power model.
func benchmarkNames() []string {
	all := workload.All()
	out := make([]string, len(all))
	for i, b := range all {
		out[i] = b.Name
	}
	return out
}

// proposals draws distinct steady what-if proposals: a PARSEC benchmark,
// an idle state, a condenser water temperature in [22, 34] °C to 0.001 °C
// and a flow of 5, 7 or 9 kg/h. The water temperature's last digit has
// the stream's parity, so streams of different parity never share a memo
// key: the traced pass can send proposals the measured phases never did.
type proposals struct {
	rng    *rand.Rand
	parity int
	names  []string
	seen   map[string]bool
}

func newProposals(seed int64, stream string, parity int) *proposals {
	return &proposals{rng: rngFor(seed, stream), parity: parity, names: benchmarkNames(),
		seen: make(map[string]bool)}
}

func (p *proposals) next() serve.SteadyRequest {
	for {
		milli := 22000 + p.parity + 2*p.rng.Intn((12000-p.parity)/2+1)
		req := serve.SteadyRequest{
			Benchmark:    p.names[p.rng.Intn(len(p.names))],
			Idle:         idleStates[p.rng.Intn(len(idleStates))],
			WaterC:       float64(milli) / 1000,
			WaterFlowKgH: flowsKgH[p.rng.Intn(len(flowsKgH))],
		}
		key := fmt.Sprintf("%s/%s/%d/%g", req.Benchmark, req.Idle, milli, req.WaterFlowKgH)
		if !p.seen[key] {
			p.seen[key] = true
			return req
		}
	}
}

// take returns the next n proposals.
func (p *proposals) take(n int) []serve.SteadyRequest {
	out := make([]serve.SteadyRequest, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

// hotKeyCount is steady-hot's proposal pool, all primed during set-up.
const hotKeyCount = 64

// hotKeys is steady-hot's proposal pool.
func hotKeys(seed int64) []serve.SteadyRequest {
	return newProposals(seed, "hot-keys", 0).take(hotKeyCount)
}

// hotZipf draws pool indices Zipf-distributed with s = 1.1: a hot head
// and a long tail.
func hotZipf(rng *rand.Rand) *rand.Zipf { return rand.NewZipf(rng, 1.1, 1, hotKeyCount-1) }

// hotPicks draws n pool indices from hotZipf.
func hotPicks(rng *rand.Rand, n int) []int {
	z := hotZipf(rng)
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// leaseKeys is one proposal per warm session steady-novel's daemon
// holds: every benchmark × idle state, at a water temperature (21 °C) no
// measured proposal uses.
func leaseKeys() []serve.SteadyRequest {
	var out []serve.SteadyRequest
	for _, name := range benchmarkNames() {
		for _, idle := range idleStates {
			out = append(out, serve.SteadyRequest{Benchmark: name, Idle: idle, WaterC: 21, WaterFlowKgH: 7})
		}
	}
	return out
}

// Transient-stream blades: registered at medium resolution, stepped in
// chunks of chunkSteps steps of stepDtS seconds each.
const (
	chunkSteps = 10
	stepDtS    = 0.1
)

var bladeBenchmarks = []string{"x264", "canneal", "ferret", "vips"}

func bladeName(i int) string { return fmt.Sprintf("b%d", i) }

func bladeRegistration(name, benchmark string) serve.TransientRegisterRequest {
	return serve.TransientRegisterRequest{
		Blade:         name,
		SteadyRequest: serve.SteadyRequest{Benchmark: benchmark, Resolution: "medium"},
	}
}

// loadWalk is one blade's load trace: a random walk in [0.3, 1.2] with
// steps of at most ±0.1, to 0.001.
type loadWalk struct {
	rng  *rand.Rand
	load float64
	seq  int64
}

func newLoadWalk(seed int64, stream string) *loadWalk {
	return &loadWalk{rng: rngFor(seed, stream), load: 0.75}
}

// chunk returns the walk's next seq-numbered step chunk.
func (w *loadWalk) chunk() serve.TransientStepRequest {
	w.seq++
	req := serve.TransientStepRequest{Seq: w.seq, DtS: stepDtS, Steps: make([]serve.TransientStep, chunkSteps)}
	for i := range req.Steps {
		w.load += (w.rng.Float64() - 0.5) * 0.2
		if w.load < 0.3 {
			w.load = 0.6 - w.load
		}
		if w.load > 1.2 {
			w.load = 2.4 - w.load
		}
		w.load = math.Round(w.load*1000) / 1000
		l := w.load
		req.Steps[i].Load = &l
	}
	return req
}
