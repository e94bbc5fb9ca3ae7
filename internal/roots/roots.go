// Package roots provides the scalar root finding used throughout the
// repository. The hybrid delay model reduces every gate-delay query to
// "when does the output trajectory cross V_th", which is a root of a sum
// of exponentials; Brent's method solves these to machine precision in a
// handful of iterations.
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

// Brent finds a root of f in [a, b] using Brent's method (inverse
// quadratic interpolation with bisection fallback). f(a) and f(b) must
// have opposite signs.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	return BrentBracket(f, a, b, f(a), f(b), tol)
}

// BrentBracket is Brent with the bracket values fa = f(a) and fb = f(b)
// supplied by a caller that has already evaluated them; it returns the
// same bits as Brent.
func BrentBracket(f func(float64) float64, a, b, fa, fb, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
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
		tol1 := eps + float64(0.5*tol)
		xm := float64(0.5 * (c - b))
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
				p = s * (float64(2*xm*q*(q-r)) - float64((b-a)*(r-1)))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			min1 := float64(3*xm*q) - math.Abs(tol1*q)
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
