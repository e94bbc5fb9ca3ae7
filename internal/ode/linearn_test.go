package ode

import (
	"math"
	"math/rand"
	"testing"

	"hybriddelay/internal/la"
)

// randomRC builds a random n-node RC ladder-ish network.
func randomRC(rng *rand.Rand, n int) LinearN {
	c := make([]float64, n)
	for i := range c {
		c[i] = 0.2 + rng.Float64()
	}
	g := la.NewMatrix(n, n)
	u := make([]float64, n)
	// Random branches between nodes and to the rails.
	for k := 0; k < 2*n; k++ {
		gc := 0.2 + rng.Float64()
		i := rng.Intn(n)
		j := rng.Intn(n + 2)
		switch {
		case j < n && j != i:
			g.Add(i, i, gc)
			g.Add(j, j, gc)
			g.Add(i, j, -gc)
			g.Add(j, i, -gc)
		case j == n: // to VDD
			g.Add(i, i, gc)
			u[i] += gc * 0.8
		default: // to GND
			g.Add(i, i, gc)
		}
	}
	return LinearN{C: c, G: g, U: u}
}

func TestLinearNMatchesRK4(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(6)
		sys := randomRC(rng, n)
		v0 := make([]float64, n)
		for i := range v0 {
			v0[i] = rng.Float64()
		}
		sol, err := sys.Solve(v0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		T := 0.5 + 2*rng.Float64()
		want := sys.RK4N(v0, T, 4000)
		got := sol.At(T)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d node %d: analytic %g vs RK4 %g", trial, i, got[i], want[i])
			}
		}
		// Initial value.
		at0 := sol.At(0)
		for i := range v0 {
			if math.Abs(at0[i]-v0[i]) > 1e-9 {
				t.Fatalf("trial %d: initial value broken", trial)
			}
		}
		// Component agrees with At.
		for i := 0; i < n; i++ {
			if math.Abs(sol.ComponentExp(i, T, nil)-got[i]) > 1e-12*(1+math.Abs(got[i])) {
				t.Fatalf("trial %d: Component(%d) mismatch", trial, i)
			}
		}
	}
}

func TestLinearNIsolatedNode(t *testing.T) {
	// Node 0 isolated (no branches), node 1 discharging: the neutral
	// mode must hold its initial value exactly.
	g := la.NewMatrix(2, 2)
	g.Set(1, 1, 1.0)
	sys := LinearN{C: []float64{1, 1}, G: g, U: []float64{0, 0}}
	sol, err := sys.Solve([]float64{0.37, 1})
	if err != nil {
		t.Fatal(err)
	}
	v := sol.At(50)
	if math.Abs(v[0]-0.37) > 1e-12 {
		t.Errorf("isolated node drifted to %g", v[0])
	}
	if math.Abs(v[1]) > 1e-9 {
		t.Errorf("driven node did not settle: %g", v[1])
	}
}

func TestLinearNValidation(t *testing.T) {
	g := la.NewMatrix(2, 2)
	if _, err := (LinearN{C: []float64{1, -1}, G: g, U: []float64{0, 0}}).Solve([]float64{0, 0}); err == nil {
		t.Error("negative capacitance accepted")
	}
	if _, err := (LinearN{C: []float64{1}, G: g, U: []float64{0}}).Solve([]float64{0}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := (LinearN{}).Solve(nil); err == nil {
		t.Error("empty system accepted")
	}
}

func TestLinearNSlowestTimeConstant(t *testing.T) {
	g := la.NewMatrix(2, 2)
	g.Set(0, 0, 0.5) // tau = 2 with C=1
	g.Set(1, 1, 4)   // tau = 0.25
	sys := LinearN{C: []float64{1, 1}, G: g, U: []float64{0, 0}}
	sol, err := sys.Solve([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.SlowestTimeConstant(); math.Abs(got-2) > 1e-9 {
		t.Errorf("slowest tau = %g, want 2", got)
	}
}

// RK4N integrates C v' = -G v + u numerically (cross-validation).
func (s LinearN) RK4N(v0 []float64, T float64, steps int) []float64 {
	if steps < 1 {
		steps = 1
	}
	n := s.Dim()
	h := T / float64(steps)
	deriv := func(v []float64) []float64 {
		d := make([]float64, n)
		for i := 0; i < n; i++ {
			acc := s.U[i]
			for j := 0; j < n; j++ {
				acc -= s.G.At(i, j) * v[j]
			}
			d[i] = acc / s.C[i]
		}
		return d
	}
	v := append([]float64(nil), v0...)
	tmp := make([]float64, n)
	axpy := func(dst, a []float64, scale float64) []float64 {
		for i := range dst {
			tmp[i] = dst[i] + scale*a[i]
		}
		return append([]float64(nil), tmp...)
	}
	for s := 0; s < steps; s++ {
		k1 := deriv(v)
		k2 := deriv(axpy(v, k1, h/2))
		k3 := deriv(axpy(v, k2, h/2))
		k4 := deriv(axpy(v, k3, h))
		for i := 0; i < n; i++ {
			v[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
	}
	return v
}
