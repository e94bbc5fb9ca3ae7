// Package ode solves the constant-coefficient linear ODE systems
//
//	V'(t) = A V(t) + g
//
// that govern the hybrid NOR model's four modes (paper §III). For 2x2
// systems the solution is computed in closed form from the
// eigen-decomposition of A; degenerate cases (singular A, repeated
// eigenvalues) are handled explicitly because they occur in practice:
// mode (1,1) isolates node N, which makes A singular. A system is
// prepared once (Prepare) and then solved from any initial state (Solve).
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

// Prepared2 is a Linear2 with the state-independent part of its
// closed-form solution done: the eigen-decomposition, the particular
// solution and, for a singular A, the forcing in eigencoordinates. The
// hybrid model's modes are fixed systems, so each is prepared once and
// solved from every state it is entered with.
type Prepared2 struct {
	// kind discriminates the evaluation formula.
	kind solKind

	// Diagonalizable path: V(t) = vp + c1*v1*exp(l1 t) + c2*v2*exp(l2 t).
	l1, l2 float64
	v1, v2 la.Vec2
	p      la.Mat2 // eigenvector matrix [v1 v2]
	vp     la.Vec2 // particular (steady-state) solution; zero for kindSingular

	// Singular path: per-eigenmode forcing P⁻¹g, integrated through phi.
	gc la.Vec2

	// Defective path: V(t) = vp + e^{l t}[(I + N t)(V0 - vp)].
	nil2 la.Mat2
}

// Solution2 is a closed-form solution of a Linear2 initial-value problem.
// It evaluates V(t) for t >= 0 with V(0) = the initial value supplied to
// Solve, and refers to its prepared system rather than copying it.
type Solution2 struct {
	sys *Prepared2
	// c is P⁻¹(v0 - vp): the eigencoordinates of the initial offset, or
	// the offset v0 - vp itself for the defective kind.
	c la.Vec2
}

type solKind int

const (
	kindDiagonal  solKind = iota // A nonsingular, two eigenvectors
	kindDefective                // repeated eigenvalue, Jordan block
	kindSingular                 // A singular: integrate g through the propagator
)

// Solve constructs the closed-form solution with initial value v0 at t=0:
// Prepare followed by Prepared2.Solve.
func (s Linear2) Solve(v0 la.Vec2) (Solution2, error) {
	p, err := s.Prepare()
	if err != nil {
		return Solution2{}, err
	}
	return p.Solve(v0), nil
}

// Prepare does the state-independent work of solving the system.
//
// Singular A (one or both eigenvalues zero) has no steady state in
// general. It is handled by the propagator formula
//
//	V(t) = e^{At} v0 + Int_0^t e^{A(t-s)} g ds,
//
// split along eigenvectors: in the hybrid model this is mode (1,1), where
// V_N' = 0 and V_O decays with g = 0; in general a zero eigenvalue's
// response grows linearly (c + g_i t) and a nonzero one relaxes
// exponentially.
func (s Linear2) Prepare() (Prepared2, error) {
	eig, err := la.EigenDecompose2(s.A)
	if err != nil {
		return Prepared2{}, err
	}
	p := Prepared2{kind: kindDiagonal, l1: eig.Lambda1, l2: eig.Lambda2, v1: eig.V1, v2: eig.V2,
		p: la.Mat2{A11: eig.V1.X, A12: eig.V2.X, A21: eig.V1.Y, A22: eig.V2.Y}}
	det := s.A.Det()
	if math.Abs(det) <= 1e-30*math.Max(s.A.Trace()*s.A.Trace(), 1e-300) || det == 0 {
		p.kind = kindSingular
		if eig.Defective {
			return Prepared2{}, fmt.Errorf("ode: defective singular system not supported (A=%+v)", s.A)
		}
	} else {
		// det != 0, so A.Solve cannot fail.
		p.vp, _ = s.A.Solve(la.Vec2{X: -s.G.X, Y: -s.G.Y})
		if eig.Defective {
			// The Jordan form uses l1 only; l2 = 0 leaves
			// SlowestTimeConstant at 1/|l1|.
			p.kind, p.l2 = kindDefective, 0
			p.nil2 = s.A.AddMat(la.Mat2{A11: -p.l1, A22: -p.l1})
			return p, nil
		}
	}
	if p.p.Det() == 0 {
		return Prepared2{}, fmt.Errorf("ode: eigenvector matrix singular for A=%+v", s.A)
	}
	if p.kind == kindSingular {
		p.gc, _ = p.p.Solve(s.G)
	}
	return p, nil
}

// Solve constructs the closed-form solution with initial value v0 at
// t=0. Only the initial offset's coordinates depend on v0; the solution
// refers to p, which must not change afterwards.
//
//hybrid:noalloc
func (p *Prepared2) Solve(v0 la.Vec2) (sol Solution2) {
	sol.sys = p
	sol.c = v0.Sub(p.vp)
	if p.kind != kindDefective {
		// The eigenvector matrix is nonsingular (checked by Prepare).
		sol.c, _ = p.p.Solve(sol.c)
	}
	return sol
}

// Exps writes the modal exponentials e^{l1 t}, e^{l2 t} that At and
// BoundYExp evaluate at local time t into e (length 2).
func (sol *Solution2) Exps(t float64, e []float64) {
	e[0] = math.Exp(sol.sys.l1 * t)
	e[1] = math.Exp(sol.sys.l2 * t)
}

// At evaluates V(t).
func (sol *Solution2) At(t float64) la.Vec2 {
	var e [2]float64
	sol.Exps(t, e[:])
	return sol.AtExp(t, e[:])
}

// AtExp evaluates V(t) from the exponentials Exps(t) wrote into e.
func (sol *Solution2) AtExp(t float64, e []float64) la.Vec2 {
	p := sol.sys
	switch p.kind {
	case kindDiagonal:
		return p.vp.
			Add(p.v1.Scale(sol.c.X * e[0])).
			Add(p.v2.Scale(sol.c.Y * e[1]))
	case kindDefective:
		// V(t) = vp + e^{l t} (I + N t)(v0 - vp).
		w := sol.c
		nw := p.nil2.MulVec(w)
		return p.vp.Add(w.Add(nw.Scale(t)).Scale(e[0]))
	case kindSingular:
		// Per-eigenmode: x_i(t) = c_i e^{l_i t} + g_i * phi(l_i, t), where
		// phi(l, t) = (e^{l t} - 1)/l, extended continuously to phi(0,t)=t.
		x1 := float64(sol.c.X*e[0]) + float64(p.gc.X*phi(p.l1, t, e[0]))
		x2 := float64(sol.c.Y*e[1]) + float64(p.gc.Y*phi(p.l2, t, e[1]))
		return p.v1.Scale(x1).Add(p.v2.Scale(x2))
	}
	panic("ode: unknown solution kind")
}

// phi computes (e^{l t} - 1)/l from e = e^{l t}, with a series fallback
// near l*t == 0.
func phi(l, t, e float64) float64 {
	x := l * t
	if math.Abs(x) < 1e-6 {
		// (e^x - 1)/l = t (1 + x/2 + x^2/6 + ...)
		return t * (1 + float64(x/2) + x*x/6)
	}
	return (e - 1) / l
}

// SlowestTimeConstant returns the magnitude of the slowest stable pole's
// time constant 1/|lambda|, or +Inf when an eigenvalue is (numerically)
// zero. It is used to size scan windows for threshold-crossing searches.
func (sol *Solution2) SlowestTimeConstant() float64 {
	minMag := math.Inf(1)
	for _, l := range []float64{sol.sys.l1, sol.sys.l2} {
		if m := math.Abs(l); m > 1e-30 && m < minMag {
			minMag = m
		}
	}
	if math.IsInf(minMag, 1) {
		return math.Inf(1)
	}
	return 1 / minMag
}
