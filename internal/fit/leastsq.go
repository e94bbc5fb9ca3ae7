package fit

import (
	"fmt"
	"math"

	"hybriddelay/internal/la"
)

// ResidualFunc maps parameters to a residual vector. Least-squares solvers
// minimise 0.5 * sum(r_i^2).
type ResidualFunc func(params []float64) []float64

// LevenbergMarquardt's fixed tolerances: it stops when the gradient's
// infinity norm falls below lmTolG or a step lowers the cost by less
// than lmTolRel relative, and starts damping at lmInitialLambda.
const (
	lmTolG          = 1e-14
	lmTolRel        = 1e-12
	lmInitialLambda = 1e-3
)

// LeastSquaresOptions configures LevenbergMarquardt.
type LeastSquaresOptions struct {
	// MaxIter bounds outer iterations. Default 200.
	MaxIter int
	// Scale holds per-parameter magnitudes used for the finite-difference
	// Jacobian steps. If nil, |x_i| (or 1) is used.
	Scale []float64
}

// LeastSquaresResult reports the outcome of a least-squares fit.
type LeastSquaresResult struct {
	X         []float64
	Cost      float64 // 0.5 * ||r||^2 at X
	Iters     int
	Evals     int
	Converged bool
}

// LevenbergMarquardt minimises 0.5*||r(x)||^2 with a damped Gauss–Newton
// iteration and a numerically differenced Jacobian. It is the workhorse
// behind the Table I parametrization.
func LevenbergMarquardt(r ResidualFunc, x0 []float64, opt *LeastSquaresOptions) (LeastSquaresResult, error) {
	n := len(x0)
	if n == 0 {
		return LeastSquaresResult{}, fmt.Errorf("fit: empty starting point")
	}
	o := LeastSquaresOptions{}
	if opt != nil {
		o = *opt
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}

	x := append([]float64(nil), x0...)
	evals := 0
	resid := func(p []float64) []float64 {
		evals++
		out := r(p)
		for i, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				out[i] = 1e150
			}
		}
		return out
	}
	res := resid(x)
	m := len(res)
	if m == 0 {
		return LeastSquaresResult{}, fmt.Errorf("fit: residual function returned no residuals")
	}
	cost := 0.5 * dot(res, res)
	lambda := lmInitialLambda

	jac := la.NewMatrix(m, n)
	for iter := 0; iter < o.MaxIter; iter++ {
		// Numeric Jacobian (forward differences).
		for j := 0; j < n; j++ {
			scale := math.Abs(x[j])
			if o.Scale != nil && o.Scale[j] > 0 {
				scale = o.Scale[j]
			}
			if scale == 0 {
				scale = 1
			}
			h := 1e-7 * scale
			xj := x[j]
			x[j] = xj + float64(h) // h is a product: never fuse it into the sum
			rp := resid(x)
			x[j] = xj
			for i := 0; i < m; i++ {
				jac.Set(i, j, (rp[i]-res[i])/h)
			}
		}
		// Gradient g = J^T r and normal matrix JtJ.
		g := make([]float64, n)
		jtj := la.NewMatrix(n, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				jij := jac.At(i, j)
				g[j] += float64(jij * res[i])
				for k := j; k < n; k++ {
					jtj.Add(j, k, float64(jij*jac.At(i, k)))
				}
			}
		}
		for j := 0; j < n; j++ {
			for k := 0; k < j; k++ {
				jtj.Set(j, k, jtj.At(k, j))
			}
		}
		if la.NormInf(g) < lmTolG {
			return LeastSquaresResult{X: x, Cost: cost, Iters: iter, Evals: evals, Converged: true}, nil
		}

		// Try damped steps, adapting lambda until the cost decreases.
		improved := false
		for try := 0; try < 40; try++ {
			a := jtj.Clone()
			for j := 0; j < n; j++ {
				a.Add(j, j, float64(lambda*math.Max(jtj.At(j, j), 1e-300)))
			}
			negG := make([]float64, n)
			for j := range g {
				negG[j] = -g[j]
			}
			step := make([]float64, n)
			var lu la.LU
			if err := lu.FactorSolveInPlace(a, step, negG); err != nil {
				lambda *= 10
				continue
			}
			xNew := make([]float64, n)
			for j := range x {
				xNew[j] = x[j] + step[j]
			}
			resNew := resid(xNew)
			costNew := 0.5 * dot(resNew, resNew)
			if costNew < cost {
				relDrop := (cost - float64(costNew)) / math.Max(cost, 1e-300) // costNew is a product, as h above
				x, res, cost = xNew, resNew, costNew
				lambda = math.Max(lambda/3, 1e-12)
				improved = true
				if relDrop < lmTolRel {
					return LeastSquaresResult{X: x, Cost: cost, Iters: iter + 1, Evals: evals, Converged: true}, nil
				}
				break
			}
			lambda *= 10
			if lambda > 1e12 {
				break
			}
		}
		if !improved {
			// Damping saturated: we are at a (possibly flat) minimum.
			return LeastSquaresResult{X: x, Cost: cost, Iters: iter, Evals: evals, Converged: true}, nil
		}
	}
	return LeastSquaresResult{X: x, Cost: cost, Iters: o.MaxIter, Evals: evals}, ErrMaxEval
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}
