package fit

import (
	"math"
	"math/rand"
	"testing"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	res, err := NelderMead(f, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-4 || math.Abs(res.X[1]+1) > 1e-4 {
		t.Errorf("minimiser = %v, want (3, -1)", res.X)
	}
	if !res.Converged {
		t.Error("expected convergence")
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := Restarted(f, []float64{-1.2, 1}, &NelderMeadOptions{MaxEvals: 20000}, 6, 1e-12)
	if err != nil && !res.Converged {
		t.Logf("optimizer reported %v (F=%g)", err, res.F)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("minimiser = %v, want (1, 1)", res.X)
	}
}

func TestNelderMeadEmptyStart(t *testing.T) {
	if _, err := NelderMead(func([]float64) float64 { return 0 }, nil, nil); err == nil {
		t.Error("expected error for empty start")
	}
}

func TestNelderMeadNaNObjective(t *testing.T) {
	// NaN regions must not derail the simplex.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	res, err := Restarted(f, []float64{1}, nil, 4, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 0.1 {
		t.Errorf("minimiser = %v, want ~2", res.X)
	}
}

func TestLevenbergMarquardtLinear(t *testing.T) {
	// Fit y = a x + b to exact data.
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // a=2, b=1
	r := func(p []float64) []float64 {
		out := make([]float64, len(xs))
		for i := range xs {
			out[i] = p[0]*xs[i] + p[1] - ys[i]
		}
		return out
	}
	res, err := LevenbergMarquardt(r, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-6 || math.Abs(res.X[1]-1) > 1e-6 {
		t.Errorf("fit = %v, want (2, 1)", res.X)
	}
	if res.Cost > 1e-12 {
		t.Errorf("cost = %g, want ~0", res.Cost)
	}
}

func TestLevenbergMarquardtExponential(t *testing.T) {
	// Fit y = A exp(-k x): a nonlinear problem like the RC fitting.
	trueA, trueK := 2.5, 0.7
	var xs, ys []float64
	for i := 0; i < 20; i++ {
		x := float64(i) * 0.3
		xs = append(xs, x)
		ys = append(ys, trueA*math.Exp(-trueK*x))
	}
	r := func(p []float64) []float64 {
		out := make([]float64, len(xs))
		for i := range xs {
			out[i] = p[0]*math.Exp(-p[1]*xs[i]) - ys[i]
		}
		return out
	}
	res, err := LevenbergMarquardt(r, []float64{1, 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-trueA) > 1e-5 || math.Abs(res.X[1]-trueK) > 1e-5 {
		t.Errorf("fit = %v, want (%g, %g)", res.X, trueA, trueK)
	}
}

func TestLevenbergMarquardtOverdetermined(t *testing.T) {
	// Noisy overdetermined system still converges to the LSQ optimum.
	rng := rand.New(rand.NewSource(5))
	trueP := []float64{1.5, -0.5}
	var xs, ys []float64
	for i := 0; i < 50; i++ {
		x := rng.Float64() * 10
		xs = append(xs, x)
		ys = append(ys, trueP[0]*x+trueP[1]+0.01*rng.NormFloat64())
	}
	r := func(p []float64) []float64 {
		out := make([]float64, len(xs))
		for i := range xs {
			out[i] = p[0]*xs[i] + p[1] - ys[i]
		}
		return out
	}
	res, err := LevenbergMarquardt(r, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-trueP[0]) > 0.05 || math.Abs(res.X[1]-trueP[1]) > 0.05 {
		t.Errorf("fit = %v, want approx %v", res.X, trueP)
	}
}

func TestLevenbergMarquardtValidation(t *testing.T) {
	if _, err := LevenbergMarquardt(func(p []float64) []float64 { return nil }, []float64{1}, nil); err == nil {
		t.Error("expected error for empty residuals")
	}
	if _, err := LevenbergMarquardt(func(p []float64) []float64 { return p }, nil, nil); err == nil {
		t.Error("expected error for empty start")
	}
}

func TestLevenbergMarquardtNonFiniteResiduals(t *testing.T) {
	// Residuals returning Inf in part of the domain must not crash.
	r := func(p []float64) []float64 {
		if p[0] > 5 {
			return []float64{math.Inf(1)}
		}
		return []float64{p[0] - 2}
	}
	res, err := LevenbergMarquardt(r, []float64{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-6 {
		t.Errorf("fit = %v, want 2", res.X)
	}
}
