// Package ode solves the constant-coefficient linear ODE systems
//
//	V'(t) = A V(t) + g
//
// that govern the hybrid NOR model's four modes (paper §III). For 2x2
// systems the solution is computed in closed form from the
// eigen-decomposition of A; degenerate cases (singular A, repeated
// eigenvalues) are handled explicitly because they occur in practice:
// mode (1,1) isolates node N, which makes A singular.
//
// A numeric RK4 integrator is included for cross-validating the analytic
// path in tests.
package ode

import (
	"fmt"
	"math"

	"hybriddelay/internal/la"
)

// Linear2 is a 2-dimensional linear time-invariant system V' = A V + g.
type Linear2 struct {
	A la.Mat2
	G la.Vec2
}

// Solution2 is a closed-form solution of a Linear2 initial-value problem.
// It evaluates V(t) for t >= 0 with V(0) = the initial value supplied to
// Solve.
type Solution2 struct {
	// kind discriminates the evaluation formula.
	kind solKind

	// Diagonalizable path: V(t) = vp + c1*v1*exp(l1 t) + c2*v2*exp(l2 t).
	l1, l2 float64
	v1, v2 la.Vec2
	c1, c2 float64
	vp     la.Vec2 // particular (steady-state) solution; zero for kindSingular

	// Singular-A path keeps the full matrices for the variation-of-
	// constants formula evaluated with the 2x2 propagator.
	sys Linear2
	v0  la.Vec2

	// Defective path: V(t) = vp + e^{l t}[(I + N t)(V0 - vp)].
	nil2 la.Mat2
}

type solKind int

const (
	kindDiagonal  solKind = iota // A nonsingular, two eigenvectors
	kindDefective                // repeated eigenvalue, Jordan block
	kindSingular                 // A singular: integrate g through the propagator
)

// Solve constructs the closed-form solution with initial value v0 at t=0.
// The solution is returned by value so callers can store it inline.
func (s Linear2) Solve(v0 la.Vec2) (Solution2, error) {
	eig, err := la.EigenDecompose2(s.A)
	if err != nil {
		return Solution2{}, err
	}
	det := s.A.Det()
	// Singular A (one or both eigenvalues zero): the steady state does not
	// exist in general. Handle via the propagator formula
	//   V(t) = e^{At} v0 + Int_0^t e^{A(t-s)} g ds,
	// which for our circuits reduces to per-eigenvector integration.
	if math.Abs(det) <= 1e-30*math.Max(s.A.Trace()*s.A.Trace(), 1e-300) || det == 0 {
		return solveSingular(s, v0, eig)
	}
	vp, err := s.A.Solve(la.Vec2{X: -s.G.X, Y: -s.G.Y})
	if err != nil {
		return solveSingular(s, v0, eig)
	}
	w := v0.Sub(vp)
	if eig.Defective {
		l := eig.Lambda1
		n := s.A.AddMat(la.Mat2{A11: -l, A22: -l})
		return Solution2{kind: kindDefective, l1: l, vp: vp, nil2: n, v0: v0, sys: s}, nil
	}
	// Expand w in the eigenbasis: w = c1 v1 + c2 v2.
	p := la.Mat2{A11: eig.V1.X, A12: eig.V2.X, A21: eig.V1.Y, A22: eig.V2.Y}
	c, err := p.Solve(w)
	if err != nil {
		return Solution2{}, fmt.Errorf("ode: eigenvector matrix singular: %w", err)
	}
	return Solution2{
		kind: kindDiagonal,
		l1:   eig.Lambda1, l2: eig.Lambda2,
		v1: eig.V1, v2: eig.V2,
		c1: c.X, c2: c.Y,
		vp: vp, sys: s, v0: v0,
	}, nil
}

// solveSingular handles singular A. In the hybrid model this is mode
// (1,1): V_N' = 0 and V_O decays exponentially, with g = 0. We support the
// general case with g constant by splitting along eigenvectors: for a zero
// eigenvalue the response grows linearly (c + g_par*t), for a nonzero one
// it is the usual exponential relaxation.
func solveSingular(s Linear2, v0 la.Vec2, eig la.Eigen2) (Solution2, error) {
	if eig.Defective {
		return Solution2{}, fmt.Errorf("ode: defective singular system not supported (A=%+v)", s.A)
	}
	p := la.Mat2{A11: eig.V1.X, A12: eig.V2.X, A21: eig.V1.Y, A22: eig.V2.Y}
	if p.Det() == 0 {
		return Solution2{}, fmt.Errorf("ode: eigenvector matrix singular for A=%+v", s.A)
	}
	c0, err := p.Solve(v0)
	if err != nil {
		return Solution2{}, err
	}
	gc, err := p.Solve(s.G)
	if err != nil {
		return Solution2{}, err
	}
	return Solution2{
		kind: kindSingular,
		l1:   eig.Lambda1, l2: eig.Lambda2,
		v1: eig.V1, v2: eig.V2,
		c1: c0.X, c2: c0.Y,
		vp:  la.Vec2{X: gc.X, Y: gc.Y}, // per-mode forcing coefficients
		sys: s, v0: v0,
	}, nil
}

// At evaluates V(t).
func (sol *Solution2) At(t float64) la.Vec2 {
	switch sol.kind {
	case kindDiagonal:
		e1 := math.Exp(sol.l1 * t)
		e2 := math.Exp(sol.l2 * t)
		return sol.vp.
			Add(sol.v1.Scale(sol.c1 * e1)).
			Add(sol.v2.Scale(sol.c2 * e2))
	case kindDefective:
		// V(t) = vp + e^{l t} (I + N t)(v0 - vp).
		w := sol.v0.Sub(sol.vp)
		nw := sol.nil2.MulVec(w)
		el := math.Exp(sol.l1 * t)
		return sol.vp.Add(w.Add(nw.Scale(t)).Scale(el))
	case kindSingular:
		// Per-eigenmode: x_i(t) = c_i e^{l_i t} + g_i * phi(l_i, t), where
		// phi(l, t) = (e^{l t} - 1)/l, extended continuously to phi(0,t)=t.
		x1 := sol.c1*math.Exp(sol.l1*t) + sol.vp.X*phi(sol.l1, t)
		x2 := sol.c2*math.Exp(sol.l2*t) + sol.vp.Y*phi(sol.l2, t)
		return sol.v1.Scale(x1).Add(sol.v2.Scale(x2))
	}
	panic("ode: unknown solution kind")
}

// Derivative evaluates V'(t) = A V(t) + g.
func (sol *Solution2) Derivative(t float64) la.Vec2 {
	v := sol.At(t)
	return sol.sys.A.MulVec(v).Add(sol.sys.G)
}

// phi computes (e^{l t} - 1)/l with a series fallback near l*t == 0.
func phi(l, t float64) float64 {
	x := l * t
	if math.Abs(x) < 1e-6 {
		// (e^x - 1)/l = t (1 + x/2 + x^2/6 + ...)
		return t * (1 + x/2 + x*x/6)
	}
	return (math.Exp(x) - 1) / l
}

// SlowestTimeConstant returns the magnitude of the slowest stable pole's
// time constant 1/|lambda|, or +Inf when an eigenvalue is (numerically)
// zero. It is used to size scan windows for threshold-crossing searches.
func (sol *Solution2) SlowestTimeConstant() float64 {
	minMag := math.Inf(1)
	for _, l := range []float64{sol.l1, sol.l2} {
		if m := math.Abs(l); m > 1e-30 && m < minMag {
			minMag = m
		}
	}
	if math.IsInf(minMag, 1) {
		return math.Inf(1)
	}
	return 1 / minMag
}

// SteadyState returns the t -> infinity limit of the solution when it
// exists (all eigenvalues strictly negative, or zero-eigenvalue modes with
// zero forcing). ok is false when the trajectory grows without bound or a
// neutral mode keeps its initial value forever (mode (1,1)'s V_N): in that
// case the returned value holds the limit with neutral modes frozen.
func (sol *Solution2) SteadyState() (la.Vec2, bool) {
	switch sol.kind {
	case kindDiagonal:
		if sol.l1 < 0 && sol.l2 < 0 {
			return sol.vp, true
		}
		return sol.vp, false
	case kindDefective:
		if sol.l1 < 0 {
			return sol.vp, true
		}
		return sol.vp, false
	case kindSingular:
		// Neutral modes (l == 0) with zero forcing stay at c_i; with
		// nonzero forcing they diverge.
		x1, ok1 := modeLimit(sol.l1, sol.c1, sol.vp.X)
		x2, ok2 := modeLimit(sol.l2, sol.c2, sol.vp.Y)
		return sol.v1.Scale(x1).Add(sol.v2.Scale(x2)), ok1 && ok2
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
// steps, returning the final state. It exists to cross-validate the
// closed-form solution in tests.
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
