package ode

import (
	"fmt"
	"math"

	"hybriddelay/internal/la"
)

// LinearN solves the n-dimensional constant-coefficient system
//
//	C V'(t) = -G V(t) + u
//
// that a switch-level RC gate model produces: C is the diagonal vector
// of node capacitances (all > 0), G is the symmetric positive
// semi-definite conductance matrix and u the source-current injection.
// Writing A = -C^{-1} G, the similarity transform S = C^{1/2} A C^{-1/2}
// is symmetric, so the spectrum is real and an orthonormal eigenbasis
// exists — the n-dimensional generalization of the paper's 2x2 modes.
type LinearN struct {
	C []float64  // node capacitances [F]
	G *la.Matrix // conductance matrix [S]
	U []float64  // current injection [A]
}

// Dim returns the system dimension.
func (s LinearN) Dim() int { return len(s.C) }

// PreparedN is a LinearN with the state-independent part of its
// closed-form solution done: the symmetrized eigenbasis, in which every
// eigenmode is an independent scalar ODE w' = lambda w + f with exact
// solution, and the forcing f in eigencoordinates.
type PreparedN struct {
	n      int
	lambda []float64 // eigenvalues of A (shared with S)
	basis  *la.Matrix
	sqrtC  []float64
	f      []float64 // forcing in eigencoordinates
}

// SolutionN is a closed-form solution of a LinearN initial-value
// problem: its prepared system and the initial value in eigencoordinates.
type SolutionN struct {
	sys *PreparedN
	w0  []float64
}

// Solve constructs the closed-form solution with initial value v0:
// Prepare followed by PreparedN.Solve.
func (s LinearN) Solve(v0 []float64) (*SolutionN, error) {
	p, err := s.Prepare()
	if err != nil {
		return nil, err
	}
	return p.Solve(v0)
}

// Prepare does the state-independent work of solving the system.
func (s LinearN) Prepare() (*PreparedN, error) {
	n := s.Dim()
	if n == 0 {
		return nil, fmt.Errorf("ode: empty system")
	}
	if s.G.Rows != n || s.G.Cols != n || len(s.U) != n {
		return nil, fmt.Errorf("ode: dimension mismatch (C=%d, G=%dx%d, U=%d)",
			n, s.G.Rows, s.G.Cols, len(s.U))
	}
	sqrtC := make([]float64, n)
	for i, c := range s.C {
		if c <= 0 {
			return nil, fmt.Errorf("ode: non-positive capacitance C[%d] = %g", i, c)
		}
		sqrtC[i] = math.Sqrt(c)
	}
	// S = -C^{-1/2} G C^{-1/2} (symmetric).
	sym := la.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sym.Set(i, j, -s.G.At(i, j)/(sqrtC[i]*sqrtC[j]))
		}
	}
	eig, err := la.JacobiEigen(sym, 0)
	if err != nil {
		return nil, fmt.Errorf("ode: eigen decomposition failed: %w", err)
	}
	// Forcing in eigencoordinates: f = U^T C^{-1/2} u.
	f := make([]float64, n)
	for k := 0; k < n; k++ {
		sf := 0.0
		for i := 0; i < n; i++ {
			sf += eig.V.At(i, k) * s.U[i] / sqrtC[i]
		}
		f[k] = sf
	}
	return &PreparedN{n: n, lambda: eig.Lambda, basis: eig.V, sqrtC: sqrtC, f: f}, nil
}

// Dim returns the system dimension.
func (sol *SolutionN) Dim() int { return sol.sys.n }

// Solve constructs the closed-form solution with initial value v0, in
// eigencoordinates w = U^T C^{1/2} v. The solution refers to p.
func (p *PreparedN) Solve(v0 []float64) (*SolutionN, error) {
	n := p.n
	if len(v0) != n {
		return nil, fmt.Errorf("ode: dimension mismatch (system %d, v0=%d)", n, len(v0))
	}
	w0 := make([]float64, n)
	for k := 0; k < n; k++ {
		sw := 0.0
		for i := 0; i < n; i++ {
			sw += float64(p.basis.At(i, k) * p.sqrtC[i] * v0[i])
		}
		w0[k] = sw
	}
	return &SolutionN{sys: p, w0: w0}, nil
}

// At evaluates V(t) into a fresh slice.
func (sol *SolutionN) At(t float64) []float64 {
	p := sol.sys
	out := make([]float64, p.n)
	// w_k(t) = w0_k e^{l t} + f_k phi(l, t); v = C^{-1/2} U w.
	for k := 0; k < p.n; k++ {
		wk := sol.mode(k, t, math.Exp(p.lambda[k]*t))
		for i := 0; i < p.n; i++ {
			out[i] += p.basis.At(i, k) * wk / p.sqrtC[i]
		}
	}
	return out
}

// mode evaluates eigenmode k at local time t from e = e^{lambda_k t}.
func (sol *SolutionN) mode(k int, t, e float64) float64 {
	return float64(sol.w0[k]*e) + float64(sol.sys.f[k]*phi(sol.sys.lambda[k], t, e))
}

// Exps writes the modal exponentials e^{lambda_k t} that ComponentExp and
// BoundComponentExp evaluate at local time t into e (length Dim).
func (sol *SolutionN) Exps(t float64, e []float64) {
	for k, l := range sol.sys.lambda {
		e[k] = math.Exp(l * t)
	}
}

// ComponentExp evaluates a single state component at time t (cheaper
// than At when only the output voltage matters) from the exponentials
// Exps(t) in e; a nil e computes them on the fly.
func (sol *SolutionN) ComponentExp(i int, t float64, e []float64) float64 {
	p := sol.sys
	v := 0.0
	// Same summation order and per-term scaling as At, so the two
	// evaluations agree bit for bit.
	for k := 0; k < p.n; k++ {
		var ek float64
		if e != nil {
			ek = e[k]
		} else {
			ek = math.Exp(p.lambda[k] * t)
		}
		v += p.basis.At(i, k) * sol.mode(k, t, ek) / p.sqrtC[i]
	}
	return v
}

// SlowestTimeConstant returns 1/|lambda| of the slowest nonzero pole, or
// +Inf if all modes are neutral.
func (sol *SolutionN) SlowestTimeConstant() float64 {
	minMag := math.Inf(1)
	for _, l := range sol.sys.lambda {
		if m := math.Abs(l); m > 1e-30 && m < minMag {
			minMag = m
		}
	}
	if math.IsInf(minMag, 1) {
		return math.Inf(1)
	}
	return 1 / minMag
}
