package la

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestVec2Ops(t *testing.T) {
	v := Vec2{1, 2}
	w := Vec2{3, -1}
	if got := v.Add(w); got != (Vec2{4, 1}) {
		t.Errorf("Add = %+v", got)
	}
	if got := v.Sub(w); got != (Vec2{-2, 3}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := v.Scale(2); got != (Vec2{2, 4}) {
		t.Errorf("Scale = %+v", got)
	}
	if got := v.Norm(); !almostEq(got, math.Sqrt(5), 1e-15) {
		t.Errorf("Norm = %g", got)
	}
}

func TestMat2Ops(t *testing.T) {
	m := Mat2{1, 2, 3, 4}
	if got := m.Det(); got != -2 {
		t.Errorf("Det = %g", got)
	}
	if got := m.Trace(); got != 5 {
		t.Errorf("Trace = %g", got)
	}
	if got := m.MulVec(Vec2{1, 1}); got != (Vec2{3, 7}) {
		t.Errorf("MulVec = %+v", got)
	}
	x, err := m.Solve(Vec2{5, 11})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x.X, 1, 1e-12) || !almostEq(x.Y, 2, 1e-12) {
		t.Errorf("Solve = %+v, want (1, 2)", x)
	}
	if _, err := (Mat2{1, 2, 2, 4}).Solve(Vec2{1, 1}); err == nil {
		t.Error("expected singular error")
	}
}

func TestEigenDiagonal(t *testing.T) {
	m := Mat2{-2, 0, 0, -5}
	e, err := EigenDecompose2(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e.Lambda1, -2, 1e-14) || !almostEq(e.Lambda2, -5, 1e-14) {
		t.Errorf("eigenvalues (%g, %g), want (-2, -5)", e.Lambda1, e.Lambda2)
	}
}

func TestEigenComplexRejected(t *testing.T) {
	// Rotation matrix has complex eigenvalues.
	if _, err := EigenDecompose2(Mat2{0, -1, 1, 0}); err == nil {
		t.Error("expected complex-eigenvalue error")
	}
}

func TestEigenScaledIdentity(t *testing.T) {
	e, err := EigenDecompose2(Mat2{-3, 0, 0, -3})
	if err != nil {
		t.Fatal(err)
	}
	if e.Defective {
		t.Error("scaled identity reported defective")
	}
	if !almostEq(e.Lambda1, -3, 1e-14) {
		t.Errorf("lambda = %g", e.Lambda1)
	}
}

func TestEigenDefective(t *testing.T) {
	// Jordan block [[-1, 1], [0, -1]].
	e, err := EigenDecompose2(Mat2{-1, 1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Defective {
		t.Error("Jordan block not reported defective")
	}
}

// TestEigenReconstruction: A v = lambda v for random matrices with real
// spectra (built as D + rank-one-ish perturbations keeping disc >= 0).
func TestEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	checked := 0
	for trial := 0; trial < 500; trial++ {
		m := Mat2{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		tr := m.Trace()
		if tr*tr-4*m.Det() < 1e-6 {
			continue // skip complex/near-defective
		}
		e, err := EigenDecompose2(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, pair := range []struct {
			l float64
			v Vec2
		}{{e.Lambda1, e.V1}, {e.Lambda2, e.V2}} {
			av := m.MulVec(pair.v)
			lv := pair.v.Scale(pair.l)
			if av.Sub(lv).Norm() > 1e-9*(1+pair.v.Norm()*(1+math.Abs(pair.l))) {
				t.Fatalf("trial %d: A*v != lambda*v (residual %g)", trial, av.Sub(lv).Norm())
			}
		}
		checked++
	}
	if checked < 300 {
		t.Fatalf("only %d matrices checked; generator too restrictive", checked)
	}
}
