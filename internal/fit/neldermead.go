// Package fit provides the numerical optimisation substrate used to
// parametrize the hybrid delay model: Nelder–Mead simplex minimisation
// and damped Gauss–Newton (Levenberg–Marquardt) nonlinear least squares
// with numeric Jacobians.
//
// The paper calibrates R1..R4, C_N and C_O with MATLAB's optimisation
// toolbox (least-squares fitting plus fminbnd); Go has no comparable
// stdlib facility, so this package rebuilds the algorithms the fits
// here use from scratch on top of the standard library.
package fit

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrMaxEval is returned when an optimiser exhausts its evaluation budget
// before reaching its convergence tolerance.
var ErrMaxEval = errors.New("fit: maximum function evaluations exceeded")

// Result reports the outcome of a minimisation.
type Result struct {
	X         []float64 // minimiser
	F         float64   // objective value at X
	Evals     int       // number of objective evaluations
	Converged bool      // true if the tolerance was met
}

// NelderMeadOptions configures the simplex minimiser.
type NelderMeadOptions struct {
	// TolF terminates when the simplex function-value spread falls below
	// TolF * (|f_best| + |f_worst| + tiny). Default 1e-12.
	TolF float64
	// MaxEvals bounds objective evaluations. Default 200 * dim^2.
	MaxEvals int
}

// NelderMead minimises f starting from x0 using the Nelder–Mead downhill
// simplex method with standard (1, 2, 0.5, 0.5) coefficients and adaptive
// shrinking. The starting simplex steps each coordinate by 5% of its
// magnitude (1e-4 for a zero coordinate).
func NelderMead(f func([]float64) float64, x0 []float64, opt *NelderMeadOptions) (Result, error) {
	n := len(x0)
	if n == 0 {
		return Result{}, fmt.Errorf("fit: empty starting point")
	}
	o := NelderMeadOptions{}
	if opt != nil {
		o = *opt
	}
	if o.TolF <= 0 {
		o.TolF = 1e-12
	}
	if o.MaxEvals <= 0 {
		o.MaxEvals = 200 * n * n
		if o.MaxEvals < 2000 {
			o.MaxEvals = 2000
		}
	}
	step := make([]float64, n)
	for i, v := range x0 {
		s := 0.05 * math.Abs(v)
		if s == 0 {
			s = 1e-4
		}
		step[i] = s
	}

	type vertex struct {
		x []float64
		f float64
	}
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			v = math.Inf(1)
		}
		return v
	}

	// Build the initial simplex: x0 plus one perturbed point per axis.
	simplex := make([]vertex, n+1)
	simplex[0] = vertex{append([]float64(nil), x0...), eval(x0)}
	for i := 0; i < n; i++ {
		x := append([]float64(nil), x0...)
		x[i] += step[i]
		simplex[i+1] = vertex{x, eval(x)}
	}

	centroid := make([]float64, n)
	xr := make([]float64, n)
	xe := make([]float64, n)
	xc := make([]float64, n)

	for evals < o.MaxEvals {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
		best, worst := simplex[0], simplex[n]

		// Convergence test.
		spread := math.Abs(worst.f - best.f)
		if spread <= o.TolF*(math.Abs(best.f)+math.Abs(worst.f)+1e-300) {
			return Result{X: best.x, F: best.f, Evals: evals, Converged: true}, nil
		}

		// Centroid of all but the worst vertex.
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += simplex[i].x[j]
			}
			centroid[j] = s / float64(n)
		}

		// Reflection.
		for j := 0; j < n; j++ {
			xr[j] = centroid[j] + (centroid[j] - worst.x[j])
		}
		fr := eval(xr)
		switch {
		case fr < best.f:
			// Expansion.
			for j := 0; j < n; j++ {
				xe[j] = centroid[j] + 2*(centroid[j]-worst.x[j])
			}
			fe := eval(xe)
			if fe < fr {
				copy(simplex[n].x, xe)
				simplex[n].f = fe
			} else {
				copy(simplex[n].x, xr)
				simplex[n].f = fr
			}
		case fr < simplex[n-1].f:
			copy(simplex[n].x, xr)
			simplex[n].f = fr
		default:
			// Contraction (outside if the reflected point improved on the
			// worst vertex, inside otherwise).
			if fr < worst.f {
				for j := 0; j < n; j++ {
					xc[j] = centroid[j] + float64(0.5*(xr[j]-centroid[j]))
				}
			} else {
				for j := 0; j < n; j++ {
					xc[j] = centroid[j] + float64(0.5*(worst.x[j]-centroid[j]))
				}
			}
			fc := eval(xc)
			if fc < math.Min(fr, worst.f) {
				copy(simplex[n].x, xc)
				simplex[n].f = fc
			} else {
				// Shrink towards the best vertex.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = best.x[j] + float64(0.5*(simplex[i].x[j]-best.x[j]))
					}
					simplex[i].f = eval(simplex[i].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
	return Result{X: simplex[0].x, F: simplex[0].f, Evals: evals}, ErrMaxEval
}

// Restarted runs NelderMead and restarts it from the incumbent minimiser
// until the objective stops improving by more than relImprove, up to
// maxRestarts rounds. Nelder–Mead can stagnate on narrow valleys; cheap
// restarts with a fresh simplex are the standard remedy.
func Restarted(f func([]float64) float64, x0 []float64, opt *NelderMeadOptions, maxRestarts int, relImprove float64) (Result, error) {
	if maxRestarts < 1 {
		maxRestarts = 1
	}
	if relImprove <= 0 {
		relImprove = 1e-9
	}
	best, err := NelderMead(f, x0, opt)
	total := best.Evals
	for r := 1; r < maxRestarts; r++ {
		next, nerr := NelderMead(f, best.X, opt)
		total += next.Evals
		improved := best.F-next.F > relImprove*(math.Abs(best.F)+1e-300)
		if next.F < best.F {
			best = next
			err = nerr
		}
		if !improved {
			break
		}
	}
	best.Evals = total
	return best, err
}
