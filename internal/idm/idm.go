// Package idm implements involution delay model (IDM) channels
// [Függer et al. 2020], in particular the exponential channel
// ("Exp-Channel") the paper uses to represent the IDM in its accuracy
// comparison (§VI).
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

// Involution checks: see idm_test.go for the property tests pinning
// -delta_up(-delta_down(T)) = T on Exp channels.
