package roots

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Bisect finds a root of f in [a, b] with f(a) and f(b) of opposite
// sign: the plain reference Brent is checked against.
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

func TestBisectKnownRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	r, err := Bisect(f, 0, 2, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-math.Sqrt2) > 1e-12 {
		t.Errorf("root = %.15g, want sqrt(2)", r)
	}
}

func TestBisectEndpoints(t *testing.T) {
	f := func(x float64) float64 { return x }
	if r, err := Bisect(f, 0, 1, 0); err != nil || r != 0 {
		t.Errorf("expected exact endpoint root, got %g, %v", r, err)
	}
	if r, err := Bisect(f, -1, 0, 0); err != nil || r != 0 {
		t.Errorf("expected exact endpoint root, got %g, %v", r, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("expected ErrNoBracket, got %v", err)
	}
}

func TestBrentKnownRoots(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"sqrt2", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cos", math.Cos, 1, 2, math.Pi / 2},
		{"exp", func(x float64) float64 { return math.Exp(x) - 3 }, 0, 2, math.Log(3)},
		{"cubic", func(x float64) float64 { return x * x * x }, -1, 2, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := Brent(c.f, c.a, c.b, 1e-15)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(r-c.want) > 1e-9 {
				t.Errorf("root = %.15g, want %.15g", r, c.want)
			}
		})
	}
}

func TestBrentNoBracket(t *testing.T) {
	if _, err := Brent(func(x float64) float64 { return 1 + x*x }, -1, 1, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("expected ErrNoBracket, got %v", err)
	}
}

// TestBrentMatchesBisect: on random monotone exponential-sum functions
// (the shape the hybrid model produces) both solvers find the same root.
func TestBrentMatchesBisect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a := 0.5 + rng.Float64()
		b := 0.1 + rng.Float64()
		l1 := -(0.5 + rng.Float64())
		l2 := -(2 + rng.Float64())
		level := 0.3 * (a + b)
		f := func(x float64) float64 { return a*math.Exp(l1*x) + b*math.Exp(l2*x) - level }
		// f(0) = a + b - level > 0; f decays to -level < 0.
		rBrent, err := Brent(f, 0, 50, 1e-15)
		if err != nil {
			t.Fatalf("trial %d: brent: %v", trial, err)
		}
		rBisect, err := Bisect(f, 0, 50, 1e-13)
		if err != nil {
			t.Fatalf("trial %d: bisect: %v", trial, err)
		}
		if math.Abs(rBrent-rBisect) > 1e-9 {
			t.Fatalf("trial %d: brent %.12g vs bisect %.12g", trial, rBrent, rBisect)
		}
	}
}

// TestBrentBracketMatchesBrent: over random sums of exponentials (the
// shape of every delay query) and random brackets, Brent given the
// bracket values returns the same bits and error as Brent, and takes
// exactly the two end evaluations fewer.
func TestBrentBracketMatchesBrent(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const trials = 2000
	roots := 0
	for trial := 0; trial < trials; trial++ {
		k, a1, a2 := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		l1, l2 := -5*rng.Float64(), -50*rng.Float64()
		calls := 0
		f := func(x float64) float64 {
			calls++
			return k + a1*math.Exp(l1*x) + a2*math.Exp(l2*x)
		}
		a := rng.Float64()
		b := a + 3*rng.Float64()
		if rng.Intn(4) > 0 {
			// Put a root inside the bracket.
			x0 := a + (b-a)*rng.Float64()
			k = -(a1*math.Exp(l1*x0) + a2*math.Exp(l2*x0))
		}
		tol := 0.0
		if rng.Intn(2) == 0 {
			tol = 1e-9
		}
		want, wantErr := Brent(f, a, b, tol)
		brentCalls := calls
		fa, fb := f(a), f(b)
		calls = 0
		got, gotErr := BrentBracket(f, a, b, fa, fb, tol)
		if math.Float64bits(got) != math.Float64bits(want) || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: BrentBracket (%.17g, %v), Brent (%.17g, %v)", trial, got, gotErr, want, wantErr)
		}
		if calls != brentCalls-2 {
			t.Fatalf("trial %d: BrentBracket evaluated f %d times, Brent %d", trial, calls, brentCalls)
		}
		if wantErr == nil {
			roots++
		}
	}
	if roots < trials/4 {
		t.Fatalf("only %d of %d brackets held a root", roots, trials)
	}
}
