package ode

import (
	"math"
	"math/rand"
	"testing"

	"hybriddelay/internal/la"
)

// boundSamples returns float64 times in [a, b]: both ends, their
// neighbours one ulp inside, and n uniform random points.
func boundSamples(rng *rand.Rand, a, b float64, n int) []float64 {
	ts := []float64{a, b, math.Nextafter(a, b), math.Nextafter(b, a)}
	for i := 0; i < n; i++ {
		ts = append(ts, a+(b-a)*rng.Float64())
	}
	return ts
}

// randomWindow draws 0 <= a <= b <= span, sometimes degenerate.
func randomWindow(rng *rand.Rand, span float64) (float64, float64) {
	a, b := span*rng.Float64(), span*rng.Float64()
	if a > b {
		a, b = b, a
	}
	if rng.Intn(10) == 0 {
		b = a
	}
	return a, b
}

// checkBound asserts the soundness contract of a bound: every sampled
// evaluation lies in [lo-m, hi+m], and the margin is a rounding-size
// quantity, not a loose hull (1e-6 relative leaves room for phi's
// cancellation just above its series threshold, where its rounding
// error is ~u/1e-6 relative).
func checkBound(t *testing.T, what string, eval func(float64) float64, lo, hi, m float64, ok bool, ts []float64) {
	t.Helper()
	if !ok {
		t.Fatalf("%s: no bound", what)
	}
	if lo > hi {
		t.Fatalf("%s: inverted bound [%g, %g]", what, lo, hi)
	}
	if m < 0 || m > 1e-6*(1+math.Abs(lo)+math.Abs(hi)) {
		t.Fatalf("%s: implausible margin %g for [%g, %g]", what, m, lo, hi)
	}
	for _, tau := range ts {
		if v := eval(tau); v < lo-m || v > hi+m {
			t.Fatalf("%s: value %.17g at τ=%g outside [%.17g, %.17g] ± %g", what, v, tau, lo, hi, m)
		}
	}
}

func TestBoundYDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		sys := rcSystem(rng)
		v0 := la.Vec2{X: 2 * rng.NormFloat64(), Y: 2 * rng.NormFloat64()}
		sol, err := sys.Solve(v0)
		if err != nil {
			t.Fatal(err)
		}
		if sol.sys.kind != kindDiagonal {
			t.Fatalf("trial %d: kind %d, want diagonal", trial, sol.sys.kind)
		}
		a, b := randomWindow(rng, 20)
		lo, hi, m, ok := sol.BoundY(a, b)
		checkBound(t, "diagonal", func(tau float64) float64 { return sol.At(tau).Y },
			lo, hi, m, ok, boundSamples(rng, a, b, 200))
	}
}

func TestBoundYSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := []struct {
		name string
		sys  func() Linear2
	}{
		// Mode (1,1) shape: V_N frozen (an exactly neutral eigenvalue), V_O
		// decaying, no forcing.
		{"mode11", func() Linear2 {
			return Linear2{A: la.Mat2{A22: -(0.1 + 3*rng.Float64())}}
		}},
		// Neutral eigenvalue with forcing: linear growth through phi(0, t).
		{"neutral-forced", func() Linear2 {
			return Linear2{A: la.Mat2{A22: -(0.1 + 3*rng.Float64())},
				G: la.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()}}
		}},
		// A rank-one coupling: eigenvalues 0 and A22, skewed eigenvectors.
		{"coupled", func() Linear2 {
			return Linear2{A: la.Mat2{A21: rng.NormFloat64(), A22: -(0.1 + 3*rng.Float64())},
				G: la.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()}}
		}},
		// A slow pole whose phi switches from its series branch to its
		// exponential branch inside the window (|l·τ| crosses 1e-6).
		{"slow-pole", func() Linear2 {
			return Linear2{A: la.Mat2{A21: 1e-7 * rng.NormFloat64(), A22: -1e-7 * (0.5 + rng.Float64())},
				G: la.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()}}
		}},
	}
	for _, tc := range cases {
		for trial := 0; trial < 200; trial++ {
			sys := tc.sys()
			v0 := la.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()}
			sol, err := sys.Solve(v0)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if sol.sys.kind != kindSingular {
				t.Fatalf("%s: kind %d, want singular", tc.name, sol.sys.kind)
			}
			a, b := randomWindow(rng, 40)
			lo, hi, m, ok := sol.BoundY(a, b)
			checkBound(t, tc.name, func(tau float64) float64 { return sol.At(tau).Y },
				lo, hi, m, ok, boundSamples(rng, a, b, 200))
		}
	}
}

func TestBoundYDefectiveHasNone(t *testing.T) {
	sys := Linear2{A: la.Mat2{A11: -1, A12: 1, A22: -1}, G: la.Vec2{X: 1, Y: 1}}
	sol, err := sys.Solve(la.Vec2{X: 0.3, Y: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.sys.kind != kindDefective {
		t.Fatalf("kind %d, want defective", sol.sys.kind)
	}
	if _, _, _, ok := sol.BoundY(0, 1); ok {
		t.Error("defective solution reported a bound")
	}
}

// TestBoundYNonFinite: a window where a mode overflows has no bound.
func TestBoundYNonFinite(t *testing.T) {
	sys := Linear2{A: la.Mat2{A11: 2, A22: -1}}
	sol, err := sys.Solve(la.Vec2{X: 1, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := sol.BoundY(0, 1e4); ok {
		t.Error("overflowing window reported a bound")
	}
}

// boundComponent is BoundComponentExp with the exponentials of the
// window ends computed here.
func boundComponent(sol *SolutionN, i int, a, b float64) (lo, hi, margin float64, ok bool) {
	ea, eb := make([]float64, sol.Dim()), make([]float64, sol.Dim())
	sol.Exps(a, ea)
	sol.Exps(b, eb)
	return sol.BoundComponentExp(i, a, b, ea, eb)
}

func TestBoundComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		sys := randomRC(rng, n)
		v0 := make([]float64, n)
		for i := range v0 {
			v0[i] = 2 * rng.NormFloat64()
		}
		sol, err := sys.Solve(v0)
		if err != nil {
			t.Fatal(err)
		}
		a, b := randomWindow(rng, 20)
		ts := boundSamples(rng, a, b, 100)
		for i := 0; i < n; i++ {
			lo, hi, m, ok := boundComponent(sol, i, a, b)
			checkBound(t, "component", func(tau float64) float64 { return sol.Component(i, tau) },
				lo, hi, m, ok, ts)
		}
	}
}

// TestBoundComponentIsolatedNode: a node with no conducting branch is a
// neutral eigenmode (SwitchGate's isolated stack nodes).
func TestBoundComponentIsolatedNode(t *testing.T) {
	g := la.NewMatrix(2, 2)
	g.Set(1, 1, 1.5)
	sys := LinearN{C: []float64{0.7, 1.3}, G: g, U: []float64{0, 0.9}}
	sol, err := sys.Solve([]float64{0.4, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 50; trial++ {
		a, b := randomWindow(rng, 30)
		ts := boundSamples(rng, a, b, 100)
		for i := 0; i < 2; i++ {
			lo, hi, m, ok := boundComponent(sol, i, a, b)
			checkBound(t, "isolated", func(tau float64) float64 { return sol.Component(i, tau) },
				lo, hi, m, ok, ts)
		}
	}
}
