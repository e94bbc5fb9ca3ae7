// Package roots provides scalar root finding used throughout the
// repository: bisection, Brent's method, and bracket expansion. The hybrid
// delay model reduces every gate-delay query to "when does the output
// trajectory cross V_th", which is a root of a sum of exponentials; Brent's
// method solves these to machine precision in a handful of iterations.
package roots

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when the supplied interval does not bracket a
// sign change.
var ErrNoBracket = errors.New("roots: interval does not bracket a root")

// ErrMaxIter is returned when the iteration limit is exceeded.
var ErrMaxIter = errors.New("roots: maximum iterations exceeded")

// DefaultTol is the default absolute tolerance on the root location.
// Delay quantities in this repository are O(1e-11) seconds, so 1e-18 s is
// far below any physically meaningful resolution.
const DefaultTol = 1e-18

// DefaultMaxIter bounds the iteration count of the solvers.
const DefaultMaxIter = 200

// Bisect finds a root of f in [a, b] with f(a) and f(b) of opposite sign.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	for i := 0; i < 4*DefaultMaxIter; i++ {
		m := 0.5 * (a + b)
		if b-a <= tol || m == a || m == b {
			return m, nil
		}
		fm := f(m)
		if fm == 0 {
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return 0.5 * (a + b), nil
}

// Brent finds a root of f in [a, b] using Brent's method (inverse
// quadratic interpolation with bisection fallback). f(a) and f(b) must
// have opposite signs.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	c, fc := a, fa
	d := b - a
	e := d
	for i := 0; i < DefaultMaxIter; i++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		eps := 2*math.Nextafter(math.Abs(b), math.Inf(1)) - 2*math.Abs(b)
		tol1 := eps + 0.5*tol
		xm := 0.5 * (c - b)
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			// Attempt inverse quadratic interpolation (secant if a == c).
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			min1 := 3*xm*q - math.Abs(tol1*q)
			min2 := math.Abs(e * q)
			if 2*p < math.Min(min1, min2) {
				e = d
				d = p / q
			} else {
				d = xm
				e = d
			}
		} else {
			d = xm
			e = d
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else if xm > 0 {
			b += tol1
		} else {
			b -= tol1
		}
		fb = f(b)
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d = b - a
			e = d
		}
	}
	return b, ErrMaxIter
}

// ExpandBracket grows [a, b] geometrically away from a until f changes
// sign or the interval exceeds limit. It returns a bracketing interval.
func ExpandBracket(f func(float64) float64, a, b, limit float64) (float64, float64, error) {
	if b <= a {
		return 0, 0, fmt.Errorf("roots: invalid initial interval [%g, %g]", a, b)
	}
	fa := f(a)
	if fa == 0 {
		return a, a, nil
	}
	lo, hi := a, b
	for i := 0; i < 128; i++ {
		fb := f(hi)
		if fb == 0 || math.Signbit(fa) != math.Signbit(fb) {
			return lo, hi, nil
		}
		w := hi - a
		lo = hi
		fa = fb
		hi = a + 2*w
		if hi-a > limit {
			return 0, 0, fmt.Errorf("%w: no sign change in [%g, %g]", ErrNoBracket, a, a+limit)
		}
	}
	return 0, 0, ErrNoBracket
}
