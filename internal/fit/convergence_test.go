package fit

// Table-driven convergence tests for the numeric substrate behind the
// Table I parametrization: Nelder–Mead on standard test surfaces and
// residual bounds of the Levenberg–Marquardt solver. fit is the package
// every hybrid fit rests on, so its convergence contracts are pinned
// explicitly.

import (
	"math"
	"testing"
)

func TestNelderMeadTable(t *testing.T) {
	cases := []struct {
		name  string
		f     func([]float64) float64
		x0    []float64
		want  []float64
		xTol  float64
		opt   *NelderMeadOptions
		maxRe int
	}{
		{
			name: "sphere 3d",
			f: func(x []float64) float64 {
				s := 0.0
				for _, v := range x {
					s += v * v
				}
				return s
			},
			x0: []float64{3, -2, 1}, want: []float64{0, 0, 0}, xTol: 1e-3, maxRe: 2,
		},
		{
			name: "booth",
			f: func(x []float64) float64 {
				a := x[0] + 2*x[1] - 7
				b := 2*x[0] + x[1] - 5
				return a*a + b*b
			},
			x0: []float64{0, 0}, want: []float64{1, 3}, xTol: 1e-3, maxRe: 2,
		},
		{
			name: "beale",
			f: func(x []float64) float64 {
				a := 1.5 - x[0] + x[0]*x[1]
				b := 2.25 - x[0] + x[0]*x[1]*x[1]
				c := 2.625 - x[0] + x[0]*x[1]*x[1]*x[1]
				return a*a + b*b + c*c
			},
			x0: []float64{1, 1}, want: []float64{3, 0.5}, xTol: 1e-2,
			opt: &NelderMeadOptions{MaxEvals: 20000}, maxRe: 6,
		},
		{
			name: "rosenbrock valley",
			f: func(x []float64) float64 {
				a := 1 - x[0]
				b := x[1] - x[0]*x[0]
				return a*a + 100*b*b
			},
			x0: []float64{-1.2, 1}, want: []float64{1, 1}, xTol: 1e-2,
			opt: &NelderMeadOptions{MaxEvals: 20000}, maxRe: 6,
		},
		{
			name: "shifted anisotropic quadratic",
			f: func(x []float64) float64 {
				return (x[0]-4)*(x[0]-4) + 100*(x[1]+2)*(x[1]+2) + 0.01*(x[2]-1)*(x[2]-1)
			},
			x0: []float64{0, 0, 0}, want: []float64{4, -2, 1}, xTol: 5e-2,
			opt: &NelderMeadOptions{MaxEvals: 40000}, maxRe: 6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Restarted(tc.f, tc.x0, tc.opt, tc.maxRe, 1e-12)
			if err != nil && !res.Converged {
				t.Logf("optimizer reported %v (F=%g)", err, res.F)
			}
			for i := range tc.want {
				if math.Abs(res.X[i]-tc.want[i]) > tc.xTol {
					t.Errorf("x[%d] = %g, want %g ± %g (F=%g after %d evals)",
						i, res.X[i], tc.want[i], tc.xTol, res.F, res.Evals)
				}
			}
		})
	}
}

func TestLevenbergMarquardtResidualBounds(t *testing.T) {
	cases := []struct {
		name    string
		resid   ResidualFunc
		x0      []float64
		want    []float64
		xTol    float64
		maxCost float64
	}{
		{
			name: "exact line",
			resid: func(p []float64) []float64 {
				xs := []float64{0, 1, 2, 3}
				out := make([]float64, len(xs))
				for i, x := range xs {
					out[i] = p[0]*x + p[1] - (3*x - 1)
				}
				return out
			},
			x0: []float64{0, 0}, want: []float64{3, -1}, xTol: 1e-6, maxCost: 1e-12,
		},
		{
			name: "rational decay",
			resid: func(p []float64) []float64 {
				out := make([]float64, 10)
				for i := range out {
					x := float64(i) * 0.5
					out[i] = p[0]/(1+p[1]*x) - 2/(1+0.3*x)
				}
				return out
			},
			x0: []float64{1, 1}, want: []float64{2, 0.3}, xTol: 1e-4, maxCost: 1e-10,
		},
		{
			name: "overdetermined sine fit",
			resid: func(p []float64) []float64 {
				out := make([]float64, 25)
				for i := range out {
					x := float64(i) * 0.25
					out[i] = p[0]*math.Sin(p[1]*x) - 1.5*math.Sin(0.8*x)
				}
				return out
			},
			x0: []float64{1, 1}, want: []float64{1.5, 0.8}, xTol: 1e-4, maxCost: 1e-10,
		},
		{
			name: "residual plateau keeps best point",
			resid: func(p []float64) []float64 {
				// Flat beyond |p| > 3: the solver must settle at the
				// interior optimum, not wander the plateau.
				v := p[0]
				if v > 3 {
					v = 3
				}
				return []float64{v - 2}
			},
			x0: []float64{0}, want: []float64{2}, xTol: 1e-5, maxCost: 1e-10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := LevenbergMarquardt(tc.resid, tc.x0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Error("solver did not report convergence")
			}
			for i := range tc.want {
				if math.Abs(res.X[i]-tc.want[i]) > tc.xTol {
					t.Errorf("x[%d] = %g, want %g ± %g", i, res.X[i], tc.want[i], tc.xTol)
				}
			}
			if res.Cost > tc.maxCost {
				t.Errorf("cost %g exceeds residual bound %g", res.Cost, tc.maxCost)
			}
			// The reported cost is consistent with the residuals at X.
			r := tc.resid(res.X)
			sum := 0.0
			for _, v := range r {
				sum += v * v
			}
			if math.Abs(0.5*sum-res.Cost) > 1e-12+1e-6*res.Cost {
				t.Errorf("reported cost %g inconsistent with residuals (%g)", res.Cost, 0.5*sum)
			}
		})
	}
}
