package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// inputStreams serializes every kind of input the workloads draw from a
// seed: proposal pools and streams, Zipf picks, arrival schedules and
// load walks.
func inputStreams(t *testing.T, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	walk := newLoadWalk(seed, "walk/b0")
	var chunks []any
	for i := 0; i < 20; i++ {
		chunks = append(chunks, walk.chunk())
	}
	for _, v := range []any{
		hotKeys(seed),
		hotPicks(rngFor(seed, "hot-picks"), 500),
		poissonSchedule(rngFor(seed, "hot-arrivals"), 1000, time.Second),
		newProposals(seed, "novel", 0).take(200),
		newProposals(seed, "novel-trace", 1).take(50),
		poissonSchedule(rngFor(seed, "novel-arrivals"), 25, 10*time.Second),
		chunks,
	} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	a, b := inputStreams(t, 7), inputStreams(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, inputStreams(t, 8)) {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestPoissonScheduleRateAndOrder(t *testing.T) {
	dur := 10 * time.Second
	s := poissonSchedule(rngFor(1, "rate"), 1000, dur)
	if n := len(s); n < 9700 || n > 10300 {
		t.Fatalf("%d arrivals in 10 s at 1000/s", n)
	}
	for i, at := range s {
		if at < 0 || at >= dur || (i > 0 && at < s[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or out of range", i, at)
		}
	}
}

func TestProposalsDistinctAndDisjointByParity(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []*proposals{newProposals(3, "novel", 0), newProposals(3, "novel-trace", 1)} {
		for _, req := range p.take(2000) {
			if req.WaterC < 22 || req.WaterC > 34 {
				t.Fatalf("water_c %v outside [22, 34]", req.WaterC)
			}
			key := string(mustJSON(req))
			if seen[key] {
				t.Fatalf("proposal %s drawn twice", key)
			}
			seen[key] = true
		}
	}
	keys := map[string]bool{}
	for _, req := range leaseKeys() {
		keys[req.Benchmark+"/"+req.Idle] = true
	}
	if len(keys) != 26 {
		t.Fatalf("%d lease keys, want 26", len(keys))
	}
}

func TestLoadWalkStaysInRange(t *testing.T) {
	w := newLoadWalk(5, "walk/b1")
	for i := 1; i <= 500; i++ {
		c := w.chunk()
		if c.Seq != int64(i) || len(c.Steps) != chunkSteps || c.DtS != stepDtS {
			t.Fatalf("chunk %d: seq %d, %d steps of %v s", i, c.Seq, len(c.Steps), c.DtS)
		}
		for _, st := range c.Steps {
			if *st.Load < 0.3 || *st.Load > 1.2 {
				t.Fatalf("load %v outside [0.3, 1.2]", *st.Load)
			}
		}
	}
}
