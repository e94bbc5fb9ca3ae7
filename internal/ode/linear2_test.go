package ode

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybriddelay/internal/la"
)

// rcSystem builds a random stable 2x2 RC-like system (real negative
// eigenvalues guaranteed by similarity to a symmetric matrix).
func rcSystem(rng *rand.Rand) Linear2 {
	g1 := 0.5 + rng.Float64()
	g2 := 0.5 + rng.Float64()
	gc := rng.Float64()
	c1 := 0.5 + rng.Float64()
	c2 := 0.5 + rng.Float64()
	// Conductance-matrix form: A = -C^{-1} G with G symmetric PSD.
	a := la.Mat2{
		A11: -(g1 + gc) / c1, A12: gc / c1,
		A21: gc / c2, A22: -(g2 + gc) / c2,
	}
	return Linear2{A: a, G: la.Vec2{X: rng.Float64() / c1, Y: rng.Float64() / c2}}
}

func TestSolveMatchesRK4(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		sys := rcSystem(rng)
		v0 := la.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()}
		sol, err := sys.Solve(v0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		T := 3 * rng.Float64()
		want := sys.RK4(v0, T, 4000)
		got := sol.At(T)
		if got.Sub(want).Norm() > 1e-6*(1+want.Norm()) {
			t.Fatalf("trial %d: analytic %v vs RK4 %v", trial, got, want)
		}
	}
}

func TestSolveInitialValue(t *testing.T) {
	f := func(x, y float64) bool {
		rng := rand.New(rand.NewSource(int64(math.Float64bits(x) ^ math.Float64bits(y))))
		sys := rcSystem(rng)
		v0 := la.Vec2{X: math.Mod(x, 10), Y: math.Mod(y, 10)}
		sol, err := sys.Solve(v0)
		if err != nil {
			return false
		}
		return sol.At(0).Sub(v0).Norm() < 1e-9*(1+v0.Norm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSolveSingularMode11(t *testing.T) {
	// Mode (1,1) shape: VN frozen, VO decaying, g = 0.
	sys := Linear2{A: la.Mat2{A11: 0, A12: 0, A21: 0, A22: -2}}
	v0 := la.Vec2{X: 0.35, Y: 0.8}
	sol, err := sys.Solve(v0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{0, 0.1, 1, 5} {
		v := sol.At(tm)
		if math.Abs(v.X-0.35) > 1e-12 {
			t.Errorf("VN at %g = %g, want frozen 0.35", tm, v.X)
		}
		want := 0.8 * math.Exp(-2*tm)
		if math.Abs(v.Y-want) > 1e-12 {
			t.Errorf("VO at %g = %g, want %g", tm, v.Y, want)
		}
	}
}

func TestSolveSingularWithForcing(t *testing.T) {
	// Zero eigenvalue with forcing: x' = 1 (linear growth), y' = -y + 1.
	sys := Linear2{A: la.Mat2{A11: 0, A12: 0, A21: 0, A22: -1}, G: la.Vec2{X: 1, Y: 1}}
	sol, err := sys.Solve(la.Vec2{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	v := sol.At(2)
	if math.Abs(v.X-2) > 1e-9 {
		t.Errorf("x(2) = %g, want 2 (linear growth)", v.X)
	}
	want := 1 - math.Exp(-2.0)
	if math.Abs(v.Y-want) > 1e-9 {
		t.Errorf("y(2) = %g, want %g", v.Y, want)
	}
	if _, ok := sol.SteadyState(); ok {
		t.Error("diverging system reported a steady state")
	}
}

func TestSteadyState(t *testing.T) {
	sys := Linear2{A: la.Mat2{A11: -1, A12: 0, A21: 0, A22: -2}, G: la.Vec2{X: 3, Y: 4}}
	sol, err := sys.Solve(la.Vec2{})
	if err != nil {
		t.Fatal(err)
	}
	ss, ok := sol.SteadyState()
	if !ok {
		t.Fatal("expected a steady state")
	}
	if math.Abs(ss.X-3) > 1e-12 || math.Abs(ss.Y-2) > 1e-12 {
		t.Errorf("steady state = %v, want (3, 2)", ss)
	}
	// The trajectory approaches it.
	v := sol.At(50)
	if v.Sub(ss).Norm() > 1e-9 {
		t.Errorf("trajectory at t=50 (%v) far from steady state (%v)", v, ss)
	}
}

func TestDerivativeConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		sys := rcSystem(rng)
		v0 := la.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()}
		sol, err := sys.Solve(v0)
		if err != nil {
			t.Fatal(err)
		}
		tm := rng.Float64() * 2
		// Finite-difference check.
		h := 1e-7
		num := sol.At(tm + h).Sub(sol.At(tm - h)).Scale(1 / (2 * h))
		ana := derivative(sys, &sol, tm)
		if num.Sub(ana).Norm() > 1e-5*(1+ana.Norm()) {
			t.Fatalf("trial %d: derivative mismatch %v vs %v", trial, ana, num)
		}
	}
}

func TestSlowestTimeConstant(t *testing.T) {
	sys := Linear2{A: la.Mat2{A11: -0.5, A12: 0, A21: 0, A22: -4}}
	sol, err := sys.Solve(la.Vec2{X: 1, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.SlowestTimeConstant(); math.Abs(got-2) > 1e-12 {
		t.Errorf("slowest tau = %g, want 2", got)
	}
	// Mode (1,1)-like singular system: slowest finite pole is reported.
	sys2 := Linear2{A: la.Mat2{A22: -2}}
	sol2, err := sys2.Solve(la.Vec2{X: 1, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol2.SlowestTimeConstant(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("slowest tau = %g, want 0.5", got)
	}
}

func TestContinuityAcrossRestart(t *testing.T) {
	// Solving from sol.At(t1) and evaluating at t2-t1 equals sol.At(t2):
	// the semigroup property the hybrid trajectory machinery relies on.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		sys := rcSystem(rng)
		v0 := la.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()}
		sol, err := sys.Solve(v0)
		if err != nil {
			t.Fatal(err)
		}
		t1 := rng.Float64()
		t2 := t1 + rng.Float64()
		mid := sol.At(t1)
		sol2, err := sys.Solve(mid)
		if err != nil {
			t.Fatal(err)
		}
		a := sol.At(t2)
		b := sol2.At(t2 - t1)
		if a.Sub(b).Norm() > 1e-9*(1+a.Norm()) {
			t.Fatalf("trial %d: semigroup violated: %v vs %v", trial, a, b)
		}
	}
}

// TestPreparedSolveShared: solutions of one prepared system — diagonal,
// singular and defective — stay independent of each other, equal
// Linear2.Solve from the same state bit for bit, and cost no allocation.
func TestPreparedSolveShared(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	systems := []Linear2{
		{A: la.Mat2{A22: -2}, G: la.Vec2{X: 0.5, Y: 1}},
		{A: la.Mat2{A11: -1, A12: 1, A22: -1}, G: la.Vec2{X: 1, Y: 1}},
	}
	for i := 0; i < 20; i++ {
		systems = append(systems, rcSystem(rng))
	}
	bits := func(v la.Vec2) [2]uint64 { return [2]uint64{math.Float64bits(v.X), math.Float64bits(v.Y)} }
	for k, sys := range systems {
		p, err := sys.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		v0s := []la.Vec2{{X: rng.NormFloat64(), Y: rng.NormFloat64()}, {X: 0.8}, {Y: 0.8}}
		sols := make([]Solution2, len(v0s))
		for i, v := range v0s {
			sols[i] = p.Solve(v)
		}
		for i, v := range v0s {
			want, err := sys.Solve(v)
			if err != nil {
				t.Fatal(err)
			}
			for _, tm := range []float64{0, 0.3, 2} {
				if bits(sols[i].At(tm)) != bits(want.At(tm)) {
					t.Fatalf("system %d, state %d, t=%g: shared %v, own %v", k, i, tm, sols[i].At(tm), want.At(tm))
				}
			}
		}
		var sink Solution2
		if allocs := testing.AllocsPerRun(100, func() { sink = p.Solve(v0s[0]) }); allocs != 0 {
			t.Errorf("system %d: Prepared2.Solve allocates %.0f times", k, allocs)
		}
		_ = sink
	}
}

func TestRK4ZeroSteps(t *testing.T) {
	sys := Linear2{A: la.Mat2{A11: -1, A22: -1}}
	v := sys.RK4(la.Vec2{X: 1, Y: 1}, 1, 0) // n < 1 clamps to 1
	if math.IsNaN(v.X) || math.IsNaN(v.Y) {
		t.Error("RK4 produced NaN with clamped step count")
	}
}

// SteadyState returns the t -> infinity limit of the solution when it
// exists (all eigenvalues strictly negative, or zero-eigenvalue modes with
// zero forcing). ok is false when the trajectory grows without bound or a
// neutral mode keeps its initial value forever (mode (1,1)'s V_N): in that
// case the returned value holds the limit with neutral modes frozen.
func (sol *Solution2) SteadyState() (la.Vec2, bool) {
	p := sol.sys
	switch p.kind {
	case kindDiagonal:
		return p.vp, p.l1 < 0 && p.l2 < 0
	case kindDefective:
		return p.vp, p.l1 < 0
	case kindSingular:
		// Neutral modes (l == 0) with zero forcing stay at c_i; with
		// nonzero forcing they diverge.
		x1, ok1 := modeLimit(p.l1, sol.c.X, p.gc.X)
		x2, ok2 := modeLimit(p.l2, sol.c.Y, p.gc.Y)
		return p.v1.Scale(x1).Add(p.v2.Scale(x2)), ok1 && ok2
	}
	return la.Vec2{}, false
}

func modeLimit(l, c, g float64) (float64, bool) {
	switch {
	case l < 0:
		return -g / l, true
	case l == 0 && g == 0:
		return c, false // frozen, not a true global steady state
	default:
		return math.Inf(1), false
	}
}

// RK4 integrates V' = A V + g numerically from v0 over [0, T] with n
// steps, returning the final state. It cross-validates the closed-form
// solution.
func (s Linear2) RK4(v0 la.Vec2, T float64, n int) la.Vec2 {
	if n < 1 {
		n = 1
	}
	h := T / float64(n)
	f := func(v la.Vec2) la.Vec2 { return s.A.MulVec(v).Add(s.G) }
	v := v0
	for i := 0; i < n; i++ {
		k1 := f(v)
		k2 := f(v.Add(k1.Scale(h / 2)))
		k3 := f(v.Add(k2.Scale(h / 2)))
		k4 := f(v.Add(k3.Scale(h)))
		v = v.Add(k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4).Scale(h / 6))
	}
	return v
}

// derivative evaluates V'(t) = A V(t) + g of sys's solution sol.
func derivative(sys Linear2, sol *Solution2, t float64) la.Vec2 {
	return sys.A.MulVec(sol.At(t)).Add(sys.G)
}
