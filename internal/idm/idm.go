// Package idm implements involution delay model (IDM) channels
// [Függer et al. 2020], in particular the exponential channel
// ("Exp-Channel") the paper uses to represent the IDM in its accuracy
// comparison (§VI), and the SumExp channel mentioned as the previously
// most complex Involution Tool channel.
//
// An IDM channel is characterized by delay functions delta_up/down(T),
// where T is the previous-output-to-input delay; faithfulness requires
// the negative involution property
//
//	-delta_up(-delta_down(T)) = T   and   -delta_down(-delta_up(T)) = T.
//
// The exp channel arises from a first-order analog model: after a pure
// delay dmin, the output drives exponentially toward the rail with time
// constant tau_up (tau_down), and delays are threshold-to-threshold
// times. Solving the threshold crossings yields
//
//	delta_up(T)   = dmin + tau_up   * ln(2 - e^{-(T + dmin)/tau_down})
//	delta_down(T) = dmin + tau_down * ln(2 - e^{-(T + dmin)/tau_up})
//
// which satisfies the involution property by construction.
package idm

import (
	"fmt"
	"math"
)

// Exp is the exponential involution channel.
type Exp struct {
	TauUp   float64 // rising trajectory time constant [s]
	TauDown float64 // falling trajectory time constant [s]
	DMin    float64 // pure delay [s]
}

// NewExp validates and constructs an exp channel.
func NewExp(tauUp, tauDown, dmin float64) (Exp, error) {
	if tauUp <= 0 || tauDown <= 0 {
		return Exp{}, fmt.Errorf("idm: time constants must be positive (up=%g, down=%g)", tauUp, tauDown)
	}
	if dmin < 0 {
		return Exp{}, fmt.Errorf("idm: negative pure delay %g", dmin)
	}
	return Exp{TauUp: tauUp, TauDown: tauDown, DMin: dmin}, nil
}

// ExpFromSIS builds the channel from target single-input-switching
// delays: delta_up(inf) = dUpInf and delta_down(inf) = dDownInf, with the
// given pure delay (the paper determines dmin = 20 ps empirically). The
// time constants follow from delta(inf) = dmin + tau ln 2.
func ExpFromSIS(dUpInf, dDownInf, dmin float64) (Exp, error) {
	if dUpInf <= dmin || dDownInf <= dmin {
		return Exp{}, fmt.Errorf("idm: SIS delays (%g, %g) must exceed the pure delay %g", dUpInf, dDownInf, dmin)
	}
	return NewExp((dUpInf-dmin)/math.Ln2, (dDownInf-dmin)/math.Ln2, dmin)
}

// DelayUp implements dtsim.DelayFunc.
func (e Exp) DelayUp(T float64) float64 {
	return e.DMin + float64(e.TauUp*logArg(T, e.DMin, e.TauDown))
}

// DelayDown implements dtsim.DelayFunc.
func (e Exp) DelayDown(T float64) float64 {
	return e.DMin + float64(e.TauDown*logArg(T, e.DMin, e.TauUp))
}

// logArg evaluates ln(2 - e^{-(T+dmin)/tauPrev}) with domain clamping:
// for T at or below the domain boundary -dmin - tauPrev ln 2 the channel
// delay tends to -inf, meaning the pulse cannot be transmitted at all;
// we return -inf and let the cancellation rule annihilate the pulse.
func logArg(T, dmin, tauPrev float64) float64 {
	arg := 2 - math.Exp(-(T+dmin)/tauPrev)
	if arg <= 0 {
		return math.Inf(-1)
	}
	return math.Log(arg)
}

// DelayUpInf returns delta_up(inf) = dmin + tau_up ln 2.
func (e Exp) DelayUpInf() float64 { return e.DMin + float64(e.TauUp*math.Ln2) }

// DelayDownInf returns delta_down(inf) = dmin + tau_down ln 2.
func (e Exp) DelayDownInf() float64 { return e.DMin + float64(e.TauDown*math.Ln2) }

// SumExp is a channel whose switching waveform is a weighted sum of two
// exponentials (the "SumExp-Channel" of the Involution Tool, whose VHDL
// implementation required numeric inversion of the trajectory). The
// rising output waveform after the pure delay is
//
//	V(t) = 1 - (w e^{-t/tau1} + (1-w) e^{-t/tau2}) * (1 - V0)
//
// normalized to [0, 1] with threshold 1/2; falling is symmetric. Because
// the trajectory is not analytically invertible, threshold crossings are
// found by monotone bisection, mirroring the original implementation.
type SumExp struct {
	Tau1, Tau2 float64 // the two time constants [s]
	W          float64 // weight of tau1 in (0, 1]
	DMin       float64 // pure delay [s]
}

// NewSumExp validates and constructs a SumExp channel.
func NewSumExp(tau1, tau2, w, dmin float64) (SumExp, error) {
	if tau1 <= 0 || tau2 <= 0 {
		return SumExp{}, fmt.Errorf("idm: time constants must be positive (%g, %g)", tau1, tau2)
	}
	if w <= 0 || w > 1 {
		return SumExp{}, fmt.Errorf("idm: weight %g outside (0, 1]", w)
	}
	if dmin < 0 {
		return SumExp{}, fmt.Errorf("idm: negative pure delay %g", dmin)
	}
	return SumExp{Tau1: tau1, Tau2: tau2, W: w, DMin: dmin}, nil
}

// decay evaluates the normalized remaining distance to the rail,
// w e^{-t/tau1} + (1-w) e^{-t/tau2}, a strictly decreasing function.
func (s SumExp) decay(t float64) float64 {
	return float64(s.W*math.Exp(-t/s.Tau1)) + float64((1-s.W)*math.Exp(-t/s.Tau2))
}

// invertDecay solves decay(t) = y for t >= 0 by bisection (y in (0, 1]).
func (s SumExp) invertDecay(y float64) float64 {
	if y >= 1 {
		return 0
	}
	lo, hi := 0.0, math.Max(s.Tau1, s.Tau2)
	for s.decay(hi) > y {
		hi *= 2
		if hi > 1e6*(s.Tau1+s.Tau2) {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if hi-lo <= 1e-18 {
			return mid
		}
		if s.decay(mid) > y {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// DelayUp implements dtsim.DelayFunc. The previous falling trajectory
// determines the voltage V0 at which the rising drive starts; the delay
// is dmin plus the time for the rising trajectory to recross 1/2.
func (s SumExp) DelayUp(T float64) float64 {
	return s.delay(T)
}

// DelayDown implements dtsim.DelayFunc (the channel is symmetric).
func (s SumExp) DelayDown(T float64) float64 {
	return s.delay(T)
}

func (s SumExp) delay(T float64) float64 {
	// Previous trajectory: passed 1/2 at its own threshold instant and
	// decays; at the switch instant (T + dmin later) the remaining
	// distance is (1/2) * decay(T + dmin) from the departed rail, so the
	// distance to the target rail is 1 - (1/2) decay(T + dmin).
	tEff := T + s.DMin
	var start float64
	if tEff < 0 {
		// The input arrived before the previous output crossing: walk the
		// previous trajectory backward (it is still above threshold).
		// Solve decay(t*) continuation; for tEff < 0 the previous output
		// had not yet reached 1/2, distance > 1/2.
		start = 1 - float64(0.5*s.decayExtended(tEff))
	} else {
		start = 1 - float64(0.5*s.decay(tEff))
	}
	if start <= 0.5 {
		return math.Inf(-1) // pulse cannot be transmitted
	}
	// Rising from V0 = 1 - start toward 1: remaining distance start
	// shrinks by factor decay(u); crossing 1/2 when start*decay(u) = 1/2.
	u := s.invertDecay(0.5 / start)
	return s.DMin + u
}

// decayExtended extends the decay function to negative times by linear
// extrapolation of its logarithm (the dominant time constant), keeping
// the delay function continuous at the domain boundary.
func (s SumExp) decayExtended(t float64) float64 {
	if t >= 0 {
		return s.decay(t)
	}
	tau := math.Max(s.Tau1, s.Tau2)
	return math.Exp(-t / tau) // > 1 for t < 0
}

// Involution checks: see idm_test.go for the property tests pinning
// -delta_up(-delta_down(T)) = T on Exp channels.
