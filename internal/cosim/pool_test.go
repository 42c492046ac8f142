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
// is refused, and Close releases every team the pool's sessions own.
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
	for _, ses := range pool.all {
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
	built := len(pool.all)
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
	if len(pool.all) != built {
		t.Fatalf("reuse built %d more sessions", len(pool.all)-built)
	}

	// An invalid design is an error, on every Get, and builds nothing.
	bad := sys.Design
	bad.FillingRatio = 0
	for i := 0; i < 2; i++ {
		if _, err := pool.Get(bad); err == nil {
			t.Fatal("Get accepted an invalid design")
		}
	}
	if len(pool.all) != built {
		t.Fatal("an invalid design built a session")
	}

	// Close releases every team, held sessions' included.
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
