package linalg

import (
	"math"
	"testing"
)

// The tests in this file pin the tentpole contract of the worker team:
// thread count is a pure performance knob. Every kernel — and every full
// CG solve built on them — must return byte-identical results at any
// team width, enforced here by comparing against the serial (nil-team)
// path. Running them under -race doubles as the data-race gate for the
// team and the fused kernels.

// parVec builds a deterministic, sign-varying test vector.
func parVec(n int, seed float64) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = math.Sin(seed+float64(i)*0.7) + 0.01*float64(i%17)
	}
	return v
}

func TestBandPartitionsExactly(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000, 4097} {
		for _, workers := range []int{1, 2, 3, 7, 16} {
			covered := 0
			prevHi := 0
			for w := 0; w < workers; w++ {
				lo, hi := Band(n, w, workers)
				if lo != prevHi {
					t.Fatalf("Band(%d,%d,%d): lo %d, want %d", n, w, workers, lo, prevHi)
				}
				if hi < lo || hi > n {
					t.Fatalf("Band(%d,%d,%d): bad hi %d", n, w, workers, hi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("Band(%d,_,%d) covered %d ending at %d", n, workers, covered, prevHi)
			}
		}
	}
}

// TestReductionKernelsByteIdenticalAcrossTeams runs every reduction and
// fused kernel at several team widths and demands bit equality with the
// serial result — the fixed-chunk/fixed-order contract.
func TestReductionKernelsByteIdenticalAcrossTeams(t *testing.T) {
	const n = 3*ParChunk + 517 // ragged chunk tail on purpose
	a, b := parVec(n, 1), parVec(n, 2)
	invD := parVec(n, 3)
	for i := range invD {
		invD[i] = 1 / (2 + math.Abs(invD[i]))
	}

	ws := &CGWorkspace{}
	ws.grow(n)
	wantDot := ws.dot(a, b)

	xRef, rRef := a.Clone(), b.Clone()
	wantNorm := ws.fusedUpdate(xRef, rRef, a, b, 0.37)

	zRef := make(Vector, n)
	wantJac := ws.jacobiDot(rRef, invD, zRef)

	for _, workers := range []int{2, 3, 5, 8} {
		team := NewTeam(workers)
		tws := &CGWorkspace{}
		tws.grow(n)
		tws.SetTeam(team)
		if got := tws.dot(a, b); got != wantDot {
			t.Errorf("dot at %d workers: %x, serial %x", workers, got, wantDot)
		}
		x, r := a.Clone(), b.Clone()
		if got := tws.fusedUpdate(x, r, a, b, 0.37); got != wantNorm {
			t.Errorf("fusedUpdate norm at %d workers: %x, serial %x", workers, got, wantNorm)
		}
		for i := range x {
			if x[i] != xRef[i] || r[i] != rRef[i] {
				t.Fatalf("fusedUpdate vectors differ at %d workers, element %d", workers, i)
			}
		}
		z := make(Vector, n)
		if got := tws.jacobiDot(r, invD, z); got != wantJac {
			t.Errorf("jacobiDot at %d workers: %x, serial %x", workers, got, wantJac)
		}
		for i := range z {
			if z[i] != zRef[i] {
				t.Fatalf("jacobiDot z differs at %d workers, element %d", workers, i)
			}
		}
		team.Close()
	}
}

// lap1D is a shifted 1-D Laplacian (SPD, well conditioned) used to
// exercise full CG solves over the team.
type lap1D struct{ n int }

func (o lap1D) Size() int { return o.n }
func (o lap1D) Apply(x, y Vector) {
	for i := range y {
		v := 3 * x[i]
		if i > 0 {
			v -= x[i-1]
		}
		if i < o.n-1 {
			v -= x[i+1]
		}
		y[i] = v
	}
}

// TestCGByteIdenticalAcrossTeams solves the same SPD system serially and
// over teams of several widths; the iterates share every reduction, so
// the solutions and the convergence reports must match exactly.
func TestCGByteIdenticalAcrossTeams(t *testing.T) {
	const n = 2*ParMin + 331
	op := lap1D{n: n}
	b := parVec(n, 4)
	invD := make(Vector, n)
	for i := range invD {
		invD[i] = 1.0 / 3
	}

	for _, precond := range []Preconditioner{nil, &DiagonalPreconditioner{InvDiag: invD}} {
		xRef := make(Vector, n)
		ref, err := CGWith(op, b, xRef, CGOptions{Tol: 1e-12, Precond: precond}, &CGWorkspace{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			team := NewTeam(workers)
			ws := &CGWorkspace{}
			ws.SetTeam(team)
			x := make(Vector, n)
			res, err := CGWith(op, b, x, CGOptions{Tol: 1e-12, Precond: precond}, ws)
			team.Close()
			if err != nil {
				t.Fatal(err)
			}
			if res != ref {
				t.Errorf("precond=%T %d workers: result %+v, serial %+v", precond, workers, res, ref)
			}
			for i := range x {
				if x[i] != xRef[i] {
					t.Fatalf("precond=%T %d workers: x[%d] %x, serial %x", precond, workers, i, x[i], xRef[i])
				}
			}
		}
	}
}

// TestCGWithTeamZeroAllocs extends the PR 2 zero-alloc contract to the
// parallel path: a warm workspace with an attached team must dispatch
// every kernel without allocating.
func TestCGWithTeamZeroAllocs(t *testing.T) {
	const n = ParMin + 100
	var op Operator = lap1D{n: n} // one interface conversion, outside the loop
	b := parVec(n, 5)
	team := NewTeam(4)
	defer team.Close()
	ws := &CGWorkspace{}
	ws.SetTeam(team)
	x := make(Vector, n)
	solve := func() {
		x.Fill(0)
		if _, err := CGWith(op, b, x, CGOptions{Tol: 1e-10}, ws); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm-up
	if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
		t.Fatalf("team-parallel CG allocated %.1f times per run, want 0", allocs)
	}
}

func TestTeamCloseIsIdempotentAndSerialAfter(t *testing.T) {
	team := NewTeam(3)
	if team.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", team.Workers())
	}
	team.Close()
	team.Close() // must not panic
	if team.Workers() != 1 {
		t.Fatalf("closed team Workers() = %d, want 1", team.Workers())
	}
	// Running after Close degrades to the serial path.
	k := &xpbyTask{p: parVec(64, 1), z: parVec(64, 2), beta: 0.5}
	team.Run(k)

	if NewTeam(1) != nil {
		t.Fatal("NewTeam(1) must be the nil serial team")
	}
	var nilTeam *Team
	nilTeam.Run(k)
	nilTeam.Close()
	if nilTeam.Workers() != 1 {
		t.Fatal("nil team must report one worker")
	}
}
