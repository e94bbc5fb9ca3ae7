package roots

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

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

func TestExpandBracket(t *testing.T) {
	f := func(x float64) float64 { return x - 10 }
	lo, hi, err := ExpandBracket(f, 0, 1, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !(f(lo) < 0 && f(hi) > 0) {
		t.Errorf("bracket [%g, %g] does not straddle the root", lo, hi)
	}
	if _, _, err := ExpandBracket(func(float64) float64 { return 1 }, 0, 1, 100); err == nil {
		t.Error("expected failure for sign-definite function")
	}
	if _, _, err := ExpandBracket(f, 1, 0, 100); err == nil {
		t.Error("expected failure for inverted interval")
	}
}
