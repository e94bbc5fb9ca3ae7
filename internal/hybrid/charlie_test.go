package hybrid

import (
	"math"
	"math/rand"
	"testing"

	"hybriddelay/internal/la"
	"hybriddelay/internal/waveform"
)

// TestCharlieFallExact: equations (8) and (9) are exact — they must
// agree with the trajectory solver to solver precision.
func TestCharlieFallExact(t *testing.T) {
	p := TableI()
	d0, err := p.FallingDelay(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CharlieFallZero(); math.Abs(got-d0) > 1e-17 {
		t.Errorf("eq (8) = %g, solver %g", got, d0)
	}
	dm, err := p.FallingDelay(-SISFar)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CharlieFallMinusInf(); math.Abs(got-dm) > 1e-17 {
		t.Errorf("eq (9) = %g, solver %g", got, dm)
	}
}

// TestCharlieFallExactRandomParams: (8) and (9) hold for arbitrary
// parameter sets, not just Table I.
func TestCharlieFallExactRandomParams(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		p := Params{
			R1:     (10 + 90*rng.Float64()) * 1e3,
			R2:     (10 + 90*rng.Float64()) * 1e3,
			R3:     (10 + 90*rng.Float64()) * 1e3,
			R4:     (10 + 90*rng.Float64()) * 1e3,
			CN:     (10 + 90*rng.Float64()) * 1e-18,
			CO:     (200 + 800*rng.Float64()) * 1e-18,
			Supply: waveform.DefaultSupply(),
			DMin:   rng.Float64() * 20e-12,
		}
		d0, err := p.FallingDelay(0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := p.CharlieFallZero(); math.Abs(got-d0) > 1e-16+1e-9*d0 {
			t.Fatalf("trial %d: eq (8) %g vs solver %g", trial, got, d0)
		}
		dm, err := p.FallingDelay(-SISFar)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := p.CharlieFallMinusInf(); math.Abs(got-dm) > 1e-16+1e-9*dm {
			t.Fatalf("trial %d: eq (9) %g vs solver %g", trial, got, dm)
		}
	}
}

// TestCharlieFallPlusInf: the eq (10) approximation with the slow-mode
// expansion point agrees with the exact crossing to well under 0.1 ps.
func TestCharlieFallPlusInf(t *testing.T) {
	p := TableI()
	exact, err := p.FallingDelay(SISFar)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := p.CharlieFallPlusInf()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(approx-exact) > 0.1e-12 {
		t.Errorf("eq (10) = %.4f ps, exact %.4f ps", waveform.ToPs(approx), waveform.ToPs(exact))
	}
}

// TestCharlieFallPlusInfPaperW documents the transcription issue in the
// preprint: evaluated literally at the printed w = 1e-10 s the Taylor
// expansion lands far from the exact value (the trajectory has settled
// long before 100 ps for Table I constants), whereas the slow-mode
// expansion point recovers it. This pins the claim of charlie.go's
// header comment.
func TestCharlieFallPlusInfPaperW(t *testing.T) {
	p := TableI()
	exact, err := p.FallingDelay(SISFar)
	if err != nil {
		t.Fatal(err)
	}
	literal, err := p.CharlieFallPlusInfAtW(PaperW10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(literal-exact) < 5e-12 {
		t.Errorf("literal w=100ps expansion unexpectedly accurate (%g vs %g) — "+
			"if this starts passing, revisit charlie.go's header comment", literal, exact)
	}
	// A nearby expansion point works fine.
	good, err := p.CharlieFallPlusInfAtW(20e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(good-exact) > 1e-12 {
		t.Errorf("w=20ps expansion off by %g", good-exact)
	}
}

// TestCharlieRiseMatchesSolver: equations (11)/(12) (re-derived Taylor
// form) match the exact rising delays across separations and initial
// V_N values.
func TestCharlieRiseMatchesSolver(t *testing.T) {
	p := TableI()
	for _, x := range []float64{0, p.Supply.VDD / 2, p.Supply.VDD} {
		for _, dd := range []float64{-SISFar, -60e-12, -10e-12, 0, 10e-12, 60e-12, SISFar} {
			exact, err := p.RisingDelayFrom(dd, x)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := p.CharlieRise(dd, x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(approx-exact) > 0.15e-12 {
				t.Errorf("X=%g Delta=%g: eq (11/12) = %.4f ps, exact %.4f ps",
					x, dd, waveform.ToPs(approx), waveform.ToPs(exact))
			}
		}
	}
}

// TestVN01: the closed form of V_N^{(0,1)}(Delta) matches the mode
// (0,1) trajectory.
func TestVN01(t *testing.T) {
	p := TableI()
	for _, x := range []float64{0, 0.3, p.Supply.VDD} {
		sol, err := p.System(Mode01).Solve(la.Vec2{X: x})
		if err != nil {
			t.Fatal(err)
		}
		for _, dd := range []float64{0, 20e-12, 100e-12} {
			want := sol.At(dd).X
			got := p.VN01(dd, x)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("VN01(%g, %g) = %g, trajectory %g", dd, x, got, want)
			}
		}
	}
}

// TestCharlieCharacteristicConsistent: the assembled closed-form
// characteristic agrees with the solver-based one.
func TestCharlieCharacteristicConsistent(t *testing.T) {
	p := TableI()
	exact, err := p.Characteristic()
	if err != nil {
		t.Fatal(err)
	}
	formula, err := p.CharlieCharacteristic()
	if err != nil {
		t.Fatal(err)
	}
	e := exact.AsSlice()
	f := formula.AsSlice()
	for i := range e {
		if math.Abs(e[i]-f[i]) > 0.15e-12 {
			t.Errorf("characteristic %d: formula %.4f ps vs exact %.4f ps",
				i, waveform.ToPs(f[i]), waveform.ToPs(e[i]))
		}
	}
}

// TestCharlieR1Independence: the paper's observation that the falling
// characteristic delays do not depend on R1 at all (equations (8)-(10)).
func TestCharlieR1Independence(t *testing.T) {
	p := TableI()
	q := p
	q.R1 *= 7
	for _, pair := range [][2]float64{
		{p.CharlieFallZero(), q.CharlieFallZero()},
		{p.CharlieFallMinusInf(), q.CharlieFallMinusInf()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("falling characteristic depends on R1: %g vs %g", pair[0], pair[1])
		}
	}
	a, err := p.CharlieFallPlusInf()
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.CharlieFallPlusInf()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("fall(+inf) depends on R1: %g vs %g", a, b)
	}
}

// TestCharlieFallMinusInfR3Independence: eq (9) depends only on CO*R4.
func TestCharlieFallMinusInfR3Independence(t *testing.T) {
	p := TableI()
	q := p
	q.R3 *= 3
	if p.CharlieFallMinusInf() != q.CharlieFallMinusInf() {
		t.Error("fall(-inf) depends on R3")
	}
}

// TestFallRatioTheorem: the paper's key §IV observation — with R3 ~= R4
// the ratio (fall(-inf) - dmin)/(fall(0) - dmin) is exactly
// (R3+R4)/R3 ~= 2, which is why a pure delay is needed to fit real
// gates.
func TestFallRatioTheorem(t *testing.T) {
	p := TableI()
	p.R3 = p.R4 // force exact equality
	num := p.CharlieFallMinusInf() - p.DMin
	den := p.CharlieFallZero() - p.DMin
	if math.Abs(num/den-2) > 1e-12 {
		t.Errorf("ratio = %.15g, want exactly 2 for R3 = R4", num/den)
	}
}
