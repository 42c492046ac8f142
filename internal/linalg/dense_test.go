package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestVectorDotAndNorms(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Dot(v); got != 25 {
		t.Fatalf("Dot = %v, want 25", got)
	}
	if got := v.Norm2(); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := v.NormInf(); got != 4 {
		t.Fatalf("NormInf = %v, want 4", got)
	}
	w := Vector{-7, 2}
	if got := w.NormInf(); got != 7 {
		t.Fatalf("NormInf = %v, want 7", got)
	}
}

func TestVectorAXPYAddSubScale(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{10, 20, 30}
	v.AXPY(2, w)
	want := Vector{21, 42, 63}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("AXPY[%d] = %v, want %v", i, v[i], want[i])
		}
	}
	v.Sub(w)
	if v[0] != 11 || v[2] != 33 {
		t.Fatalf("Sub wrong: %v", v)
	}
	v.Add(w)
	if v[0] != 21 {
		t.Fatalf("Add wrong: %v", v)
	}
	v.Scale(0.5)
	if v[0] != 10.5 {
		t.Fatalf("Scale wrong: %v", v)
	}
}

func TestVectorStats(t *testing.T) {
	v := Vector{4, -1, 7, 2}
	if v.Max() != 7 {
		t.Fatalf("Max = %v", v.Max())
	}
	if v.Min() != -1 {
		t.Fatalf("Min = %v", v.Min())
	}
	if v.Mean() != 3 {
		t.Fatalf("Mean = %v", v.Mean())
	}
	var empty Vector
	if empty.Mean() != 0 {
		t.Fatalf("empty Mean = %v", empty.Mean())
	}
}

func TestVectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch did not panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestLUSolveKnownSystem(t *testing.T) {
	// 2x + y = 5 ; x + 3y = 10 → x = 1, y = 3
	a := NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveDense(a, Vector{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("solution %v, want [1 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveDense(a, Vector{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestLUNonSquare(t *testing.T) {
	a := NewDense(2, 3)
	if _, err := FactorizeLU(a); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestLURandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		a := NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonally dominate to guarantee non-singularity.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+2)
		}
		want := make(Vector, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make(Vector, n)
		a.MulVec(want, b)
		got, err := SolveDense(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !almostEqual(got[i], want[i], 1e-8) {
				t.Fatalf("trial %d n=%d x[%d]=%v want %v", trial, n, i, got[i], want[i])
			}
		}
	}
}
