package ode

import "math"

// Interval bounds on one component of a closed-form solution over a
// local-time window [a, b].
//
// Every component is a constant K plus scaled scalar eigenmodes
//
//	w(τ) = c·e^{lτ} + g·phi(l, τ),   phi(l, τ) = (e^{lτ} - 1)/l  (= τ at l = 0),
//
// and each eigenmode is monotone: w'(τ) = (l·c + g)·e^{lτ} never changes
// sign. So the exact range of every term over [a, b] is spanned by its two
// endpoint values, and adding the per-term ranges bounds the component.
//
// The evaluators (Solution2.At, SolutionN.Component) round, so the value
// they return at a float64 τ in [a, b] can leave the exact range. Each
// bound therefore comes with a margin m such that
//
//	lo - m <= computed value <= hi + m   for every float64 τ in [a, b].
//
// Derivation, with u = 2^-53 the unit roundoff, T = max(|a|, |b|),
// E = max e^{lτ} over the window (an endpoint value) and first-order
// terms only:
//
//   - e^{lτ}: the argument l·τ rounds by u|lτ|, which exp amplifies into a
//     relative error of |l|T·u; math.Exp adds at most 2u. So c·e^{lτ}
//     carries |c|·E·(|l|T + 4)·u, plus u|c|E for adding the g term.
//   - phi on its series branch (|lτ| < 1e-6, which includes l = 0) is
//     t·(1 + x/2 + x²/6): four roundings plus a truncation far below u,
//     so g·phi carries at most 8u|g|T. On its exponential branch the
//     exp error E(|l|T + 3)u and the rounding u(E + 1) of e^{lτ} - 1 are
//     divided by |l|, and the division and the product with g each add
//     u|g·phi| <= u|g|(E + 1)/|l|: in total |g|(E(|l|T + 7) + 3)u/|l|.
//     The term is counted whenever the window reaches |l|T >= 0.5e-6.
//   - A term s·w (s = the eigenvector entry, or basis/sqrtC for
//     SolutionN, which rounds twice) adds 2u|s|W with W = max |w|.
//   - Summing n terms onto K adds n·u·(|K| + Σ|s|W).
//
// Call the sum of these E_eval. The returned lo and hi are themselves
// evaluated in floating point from the same expressions at the window
// ends, so they are off from the exact range by at most E_eval too:
// a computed value is within E_eval + E_eval of [lo, hi]. The margin
// doubles that once more, m = 4·E_eval, which covers the second-order
// terms dropped above and the rounding of the caller's comparison
// lo - m > level; an absolute 2^-1000·(1 + Σ|s|) covers subnormal
// underflow of vanishing exponentials.
//
// A caller that evaluates at rounded times t̂ rather than exact ones must
// also add |slope|·|t̂ - t|; a caller whose window ends are the very same
// rounded expressions as its sample times (as hybrid's crossing search
// does, relying on IEEE rounding being monotone) needs no such term.

const unitRoundoff = 0x1p-53

// boundAcc accumulates the per-term ranges and rounding budget of one
// solution component.
type boundAcc struct {
	lo, hi float64
	err    float64 // Σ |s|·(mode error + 2u·W)
	mag    float64 // |K| + Σ |s|·W
	scale  float64 // 1 + Σ |s|, for the underflow floor
	n      int     // number of additions
}

// newBoundAcc starts an accumulator at the constant term k.
//
//hybrid:alloc-ok returns a value-type literal, which never reaches the heap
func newBoundAcc(k float64) boundAcc {
	return boundAcc{lo: k, hi: k, mag: math.Abs(k), scale: 1}
}

// add accumulates the term s·w(τ) for the eigenmode w = c·e^{lτ} +
// g·phi(l, τ) over [a, b], given ea = e^{la} and eb = e^{lb}.
func (acc *boundAcc) add(s, l, c, g, a, b, ea, eb float64) {
	T := max(math.Abs(a), math.Abs(b))
	wa, wb := float64(c*ea), float64(c*eb)
	e := max(ea, eb)
	lt := float64(math.Abs(l) * T)
	werr := math.Abs(c) * e * (lt + 5)
	if g != 0 {
		wa += float64(g * phi(l, a, ea))
		wb += float64(g * phi(l, b, eb))
		p := float64(8 * T)
		if lt >= 0.5e-6 {
			p += (float64(e*(lt+7)) + 3) / math.Abs(l)
		}
		// float64(werr) rounds the product that set werr, which a
		// multiply-add would otherwise absorb into this sum.
		werr = float64(werr) + float64(math.Abs(g)*p)
	}
	ta, tb := s*wa, s*wb
	acc.lo += min(ta, tb)
	acc.hi += max(ta, tb)
	w := max(math.Abs(wa), math.Abs(wb))
	as := math.Abs(s)
	acc.err += float64(as * (float64(werr*unitRoundoff) + float64(2*unitRoundoff*w)))
	acc.mag += float64(as * w)
	acc.scale += as
	acc.n++
}

// result returns the bound and its margin; ok is false when any of them
// is not finite (an overflowing or NaN mode).
func (acc *boundAcc) result() (lo, hi, margin float64, ok bool) {
	eval := acc.err + float64(float64(acc.n)*unitRoundoff*acc.mag)
	margin = float64(4*eval) + float64(0x1p-1000*acc.scale)
	ok = !math.IsNaN(acc.lo+acc.hi+margin) && !math.IsInf(acc.lo, 0) &&
		!math.IsInf(acc.hi, 0) && !math.IsInf(margin, 0)
	return acc.lo, acc.hi, margin, ok
}

// BoundY bounds the output component V(τ).Y over the local-time window
// [a, b] (a <= b): every value At(τ).Y returns for a float64 τ in [a, b]
// lies in [lo - margin, hi + margin]. See the derivation at the top of
// this file. The defective kind has a polynomial factor that is not
// monotone termwise and reports ok = false.
func (sol *Solution2) BoundY(a, b float64) (lo, hi, margin float64, ok bool) {
	var ea, eb [2]float64
	sol.Exps(a, ea[:])
	sol.Exps(b, eb[:])
	return sol.BoundYExp(a, b, ea[:], eb[:])
}

// BoundYExp is BoundY given the exponentials Exps(a) and Exps(b).
func (sol *Solution2) BoundYExp(a, b float64, ea, eb []float64) (lo, hi, margin float64, ok bool) {
	var acc boundAcc
	p := sol.sys
	switch p.kind {
	case kindDiagonal:
		acc = newBoundAcc(p.vp.Y)
		acc.add(p.v1.Y, p.l1, sol.c.X, 0, a, b, ea[0], eb[0])
		acc.add(p.v2.Y, p.l2, sol.c.Y, 0, a, b, ea[1], eb[1])
	case kindSingular:
		acc = newBoundAcc(0)
		acc.add(p.v1.Y, p.l1, sol.c.X, p.gc.X, a, b, ea[0], eb[0])
		acc.add(p.v2.Y, p.l2, sol.c.Y, p.gc.Y, a, b, ea[1], eb[1])
	default:
		return 0, 0, 0, false
	}
	return acc.result()
}

// BoundComponentExp bounds component i over the local-time window
// [a, b] (a <= b) given the exponentials Exps(a) and Exps(b): every
// value Component(i, τ) returns for a float64 τ in [a, b] lies in
// [lo - margin, hi + margin]. See the derivation at the top of this file.
func (sol *SolutionN) BoundComponentExp(i int, a, b float64, ea, eb []float64) (lo, hi, margin float64, ok bool) {
	p := sol.sys
	acc := newBoundAcc(0)
	for k := 0; k < p.n; k++ {
		acc.add(p.basis.At(i, k)/p.sqrtC[i], p.lambda[k], sol.w0[k], p.f[k], a, b, ea[k], eb[k])
	}
	return acc.result()
}
