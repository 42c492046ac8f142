package linalg

import (
	"errors"
	"testing"
)

// negOperator is -I: definitely not positive definite.
type negOperator struct{ n int }

func (o negOperator) Size() int { return o.n }
func (o negOperator) Apply(x, y Vector) {
	for i := range x {
		y[i] = -x[i]
	}
}

func TestCGRejectsNonSPD(t *testing.T) {
	n := 10
	b := make(Vector, n)
	b.Fill(1)
	x := make(Vector, n)
	_, err := CG(negOperator{n}, b, x, CGOptions{})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("non-SPD operator should abort with ErrNotConverged, got %v", err)
	}
	var se *SolveError
	if !errors.As(err, &se) || se.Cause != CauseBreakdown {
		t.Fatalf("non-SPD operator should report CauseBreakdown, got %v", err)
	}
}

func TestDenseMulVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch must panic")
		}
	}()
	m := NewDense(2, 3)
	m.MulVec(make(Vector, 2), make(Vector, 2))
}

func TestNewDensePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dims must panic")
		}
	}()
	NewDense(-1, 2)
}

func TestDenseAddAt(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 3)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 5 {
		t.Fatalf("At = %v", m.At(0, 1))
	}
	c := m.Clone()
	c.Set(0, 1, 99)
	if m.At(0, 1) != 5 {
		t.Fatal("Clone aliases")
	}
}

func TestVectorFill(t *testing.T) {
	v := make(Vector, 3)
	v.Fill(7)
	for _, x := range v {
		if x != 7 {
			t.Fatal("Fill wrong")
		}
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	for _, f := range []func(){
		func() { Vector{}.Max() },
		func() { Vector{}.Min() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("empty Max/Min must panic")
				}
			}()
			f()
		}()
	}
}

func TestLUSolveWrongLength(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	f, err := FactorizeLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(Vector{1, 2, 3}); err == nil {
		t.Fatal("wrong RHS length must error")
	}
}
