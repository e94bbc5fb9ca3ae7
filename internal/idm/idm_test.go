package idm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewExpValidation(t *testing.T) {
	if _, err := NewExp(0, 1, 0); err == nil {
		t.Error("expected error for zero tau")
	}
	if _, err := NewExp(1, -1, 0); err == nil {
		t.Error("expected error for negative tau")
	}
	if _, err := NewExp(1, 1, -1); err == nil {
		t.Error("expected error for negative dmin")
	}
}

func TestExpSISLimits(t *testing.T) {
	e, err := ExpFromSIS(60e-12, 35e-12, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.DelayUpInf()-60e-12) > 1e-20 {
		t.Errorf("delta_up(inf) = %g, want 60 ps", e.DelayUpInf())
	}
	if math.Abs(e.DelayDownInf()-35e-12) > 1e-20 {
		t.Errorf("delta_down(inf) = %g, want 35 ps", e.DelayDownInf())
	}
	// delta(T) approaches delta(inf) for large T.
	if d := e.DelayUp(1e-6); math.Abs(d-e.DelayUpInf()) > 1e-15 {
		t.Errorf("delta_up at large T = %g, want %g", d, e.DelayUpInf())
	}
}

func TestExpFromSISValidation(t *testing.T) {
	if _, err := ExpFromSIS(10e-12, 35e-12, 20e-12); err == nil {
		t.Error("expected error: SIS delay below pure delay")
	}
}

// TestExpInvolutionProperty pins the defining IDM property
// -delta_up(-delta_down(T)) = T and its dual, for random channels and
// arguments across the whole domain.
func TestExpInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, err := NewExp(
			(1+9*rng.Float64())*1e-12*10,
			(1+9*rng.Float64())*1e-12*10,
			rng.Float64()*20e-12,
		)
		if err != nil {
			return false
		}
		for trial := 0; trial < 50; trial++ {
			// T ranges over the channel domain: delta must stay finite.
			// Keep T within a few time constants: for T >> tau the term
			// e^{-T/tau} underflows against the constant 2 and the
			// involution is no longer numerically invertible (the delay
			// has saturated at delta(inf) to machine precision).
			T := math.Exp(rng.Float64()*5-2) * 1e-12
			if rng.Intn(2) == 0 {
				T = -T * 0.3 // probe negative T within the domain
			}
			dd := e.DelayDown(T)
			if math.IsInf(dd, 0) {
				continue // outside the domain: pulse annihilates instead
			}
			back := -e.DelayUp(-dd)
			if math.Abs(back-T) > 1e-22+1e-9*math.Abs(T) {
				return false
			}
			du := e.DelayUp(T)
			if math.IsInf(du, 0) {
				continue
			}
			back2 := -e.DelayDown(-du)
			if math.Abs(back2-T) > 1e-22+1e-9*math.Abs(T) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestExpMonotone: delay functions are strictly increasing in T (longer
// recovery -> longer delay) and bounded by delta(inf).
func TestExpMonotone(t *testing.T) {
	e, err := NewExp(50e-12, 30e-12, 10e-12)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for T := -20e-12; T < 500e-12; T += 1e-12 {
		d := e.DelayUp(T)
		if math.IsInf(d, -1) {
			continue
		}
		if d < prev {
			t.Fatalf("delta_up not monotone at T=%g", T)
		}
		if d > e.DelayUpInf()+1e-18 {
			t.Fatalf("delta_up exceeds its limit at T=%g", T)
		}
		prev = d
	}
}

func TestExpDomainBoundary(t *testing.T) {
	e, _ := NewExp(50e-12, 30e-12, 10e-12)
	// Far below the domain the delay is -inf (pulse cannot pass).
	if d := e.DelayUp(-1e-9); !math.IsInf(d, -1) {
		t.Errorf("expected -inf outside the domain, got %g", d)
	}
}
