package cosim

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/thermosyphon"
)

// TestPool pins the session pool's contract: k concurrent holders of one
// design build at most k sessions, a returned session comes back on the
// next Get of its design and never on a Get of another, an invalid design
// is refused, a discarded session is closed and never handed out again,
// the idle sessions stay at the cap by evicting the oldest across designs,
// one-shot designs leave no bookkeeping behind, the counters add up, and
// Close releases every team the pool's sessions own.
func TestPool(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	pool := sys.NewPool(CarryWarmStart(false), WithThreads(2))
	alt := sys.Design
	alt.FillingRatio = 0.45

	// k holders per design, each taking and returning a session many
	// times: no design may ever need more than k sessions.
	const k = 3
	var wg sync.WaitGroup
	for _, d := range []thermosyphon.Design{sys.Design, alt} {
		for h := 0; h < k; h++ {
			wg.Add(1)
			go func(d thermosyphon.Design) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					ses, err := pool.Get(d)
					if err != nil {
						t.Error(err)
						return
					}
					if *ses.Design() != d {
						t.Errorf("Get handed out a session of another design")
					}
					runtime.Gosched()
					pool.Put(ses)
				}
			}(d)
		}
	}
	wg.Wait()
	perDesign := map[thermosyphon.Design]int{}
	for ses := range pool.live {
		perDesign[*ses.Design()]++
	}
	if len(perDesign) != 2 {
		t.Fatalf("sessions solve %d designs, want 2", len(perDesign))
	}
	for _, n := range perDesign {
		if n < 1 || n > k {
			t.Fatalf("%d sessions built for one design at %d holders", n, k)
		}
	}

	// A returned session is the next one its design gets, and no other
	// design's.
	built := len(pool.live)
	a, err := pool.Get(sys.Design)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(a)
	b, err := pool.Get(alt)
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatal("a session was handed out for another design")
	}
	if *b.Design() != alt {
		t.Fatalf("Get(alt) solves filling ratio %g", b.Design().FillingRatio)
	}
	if got, err := pool.Get(sys.Design); err != nil || got != a {
		t.Fatalf("Get after Put = %p, %v; want the returned session %p", got, err, a)
	}
	if len(pool.live) != built {
		t.Fatalf("reuse built %d more sessions", len(pool.live)-built)
	}

	// An invalid design is an error, on every Get, and builds nothing.
	bad := sys.Design
	bad.FillingRatio = 0
	for i := 0; i < 2; i++ {
		if _, err := pool.Get(bad); err == nil {
			t.Fatal("Get accepted an invalid design")
		}
	}
	if len(pool.live) != built {
		t.Fatal("an invalid design built a session")
	}
	pool.Put(a)
	pool.Put(b)

	// A discarded session is closed and forgotten: no later Get of its
	// design hands it out. The k sessions taken here stay held through
	// Close below.
	st := pool.Stats()
	idleAlt := 0
	for _, ses := range pool.idle {
		if *ses.Design() == alt {
			idleAlt++
		}
	}
	d, err := pool.Get(alt)
	if err != nil {
		t.Fatal(err)
	}
	pool.Discard(d)
	for i := 0; i < k; i++ {
		got, err := pool.Get(alt)
		if err != nil {
			t.Fatal(err)
		}
		if got == d {
			t.Fatal("a discarded session was handed out again")
		}
	}
	if _, ok := pool.live[d]; ok {
		t.Fatal("the pool still tracks a discarded session")
	}
	after := pool.Stats()
	if want := st.Builds + int64(k-(idleAlt-1)); after.Evictions != st.Evictions+1 || after.Builds != want {
		t.Fatalf("Discard then %d Gets: %d evictions, %d builds; want %d, %d",
			k, after.Evictions, after.Builds, st.Evictions+1, want)
	}

	// Past maxIdle idle sessions, Put closes the oldest idle one whatever
	// its design, a stream of one-shot designs leaves the bookkeeping at
	// the cap, and the counters add up to the Gets.
	capped := sys.NewPool(CarryWarmStart(false))
	defer capped.Close()
	design := func(i int) thermosyphon.Design {
		d := sys.Design
		d.CondenserUA *= 1 - 0.0001*float64(i)
		return d
	}
	get := func(d thermosyphon.Design) *Session {
		t.Helper()
		ses, err := capped.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		return ses
	}

	// maxIdle designs fill the idle list; one more evicts the oldest.
	first := make([]*Session, maxIdle+1)
	for i := range first {
		first[i] = get(design(i))
		capped.Put(first[i])
	}
	if st := capped.Stats(); st.Idle != maxIdle || st.Evictions != 1 || st.Builds != maxIdle+1 {
		t.Fatalf("%d designs: %d idle, %d evictions, %d builds; want %d, 1, %d",
			maxIdle+1, st.Idle, st.Evictions, st.Builds, maxIdle, maxIdle+1)
	}
	if _, ok := capped.live[first[0]]; ok {
		t.Fatal("the oldest idle session was not evicted")
	}
	if ses := get(design(1)); ses != first[1] {
		t.Fatal("the second oldest idle session was evicted instead of the oldest")
	} else {
		capped.Put(ses)
	}
	if ses := get(design(0)); ses == first[0] {
		t.Fatal("an evicted session was handed out again")
	} else {
		capped.Put(ses) // evicts design 2's session, now the oldest
	}

	// Within a design, the most recently returned session comes back
	// first.
	x, y := get(design(1)), get(design(1))
	capped.Put(x)
	capped.Put(y)
	if got := get(design(1)); got != y {
		t.Fatal("Get did not take the newest idle session of its design")
	} else {
		capped.Put(got)
	}

	// 200 one-shot designs: the idle list and the live set stay at the
	// cap, and every Get is counted once.
	for i := 0; i < 200; i++ {
		capped.Put(get(design(1000 + i)))
	}
	st = capped.Stats()
	if st.Idle != maxIdle || len(capped.idle) != maxIdle || len(capped.live) != maxIdle {
		t.Fatalf("after 200 one-shot designs: %d idle, %d tracked idle, %d live; want %d each",
			st.Idle, len(capped.idle), len(capped.live), maxIdle)
	}
	gets := int64(maxIdle+1) + 2 + 2 + 1 + 200
	if st.Builds+st.Reuses != gets || st.Builds-st.Evictions != maxIdle {
		t.Fatalf("%d Gets: %d builds, %d reuses, %d evictions; want builds+reuses = %d and builds-evictions = %d",
			gets, st.Builds, st.Reuses, st.Evictions, gets, maxIdle)
	}

	// Close releases every team, held sessions' included, and empties the
	// pool.
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Idle != 0 || len(pool.live) != 0 {
		t.Fatalf("after Close: %d idle, %d live", st.Idle, len(pool.live))
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
