package hybrid

import (
	"fmt"
	"math"

	"hybriddelay/internal/la"
)

// This file implements the characteristic Charlie delay formulas of
// paper §V, equations (8)-(12).
//
// Equations (8) and (9) are exact and implemented literally.
//
// Equations (10)-(12) are first-order Taylor expansions of the
// closed-form output trajectory around an expansion point w: the printed
// formulas all share the structure
//
//	d ~= ( Vth - sum_i c_i v_i e^{lambda_i w} (1 - lambda_i w) )
//	     / ( sum_i c_i v_i lambda_i e^{lambda_i w} )
//
// which is exactly t = w + (Vth - V_O(w)) / V_O'(w). The preprint fixes
// w = 1e-10 s (2e-10 s for eq. 11), but with the Table I parameters the
// trajectories settle long before 100 ps, so a first-order expansion
// there extrapolates into the settled tail and is useless; the footnoted
// O(t^2) error claim only holds when |lambda| * w << 1. We therefore keep
// the paper's algebraic structure and coefficients but choose w as the
// slow-mode crossing estimate (fast eigenmode dropped), which makes the
// one-step expansion accurate to O((t - w)^2) as intended. `hybridlab
// charlie` prints the accuracy of both variants; the literal printed w
// is also available via the *AtW functions for comparison.

// CharlieFallZero returns the exact delta_fall(0) of equation (8):
//
//	delta(0) = -ln(1/2) / (1/(CO R3) + 1/(CO R4))
//
// i.e. the V_th crossing of the parallel discharge in mode (1,1). The
// pure delay DMin is included, consistent with FallingDelay.
func (p Params) CharlieFallZero() float64 {
	return -math.Log(p.Supply.Vth/p.Supply.VDD)/(1/(p.CO*p.R3)+1/(p.CO*p.R4)) + p.DMin
}

// CharlieFallMinusInf returns the exact delta_fall(-inf) of equation (9):
//
//	delta(-inf) = -ln(1/2) * CO * R4
//
// the single-transistor discharge through R4 in mode (0,1), with DMin
// included.
func (p Params) CharlieFallMinusInf() float64 {
	return float64(-math.Log(p.Supply.Vth/p.Supply.VDD)*p.CO*p.R4) + p.DMin
}

// PaperW10 and PaperW20 are the expansion points printed in the paper.
const (
	PaperW10 = 1e-10 // w in equations (10) and (12)
	PaperW20 = 2e-10 // w in equation (11)
)

// twoExp is the paper-style closed form V(t) = vp + c1*e1*exp(l1 t) +
// c2*e2*exp(l2 t) of an output trajectory, with e_i the V_O components
// (alpha +/- beta) of the eigenvectors.
type twoExp struct {
	vp     float64 // particular/steady-state V_O
	c1, c2 float64
	e1, e2 float64 // eigenvector V_O components (alpha+beta, alpha-beta)
	l1, l2 float64
}

func (f twoExp) at(t float64) float64 {
	return f.vp + float64(f.c1*f.e1*math.Exp(f.l1*t)) + float64(f.c2*f.e2*math.Exp(f.l2*t))
}

func (f twoExp) deriv(t float64) float64 {
	return float64(f.c1*f.e1*f.l1*math.Exp(f.l1*t)) + float64(f.c2*f.e2*f.l2*math.Exp(f.l2*t))
}

// taylorStep is the shared structure of equations (10)-(12): one
// first-order expansion of the trajectory around w, solved for the V_th
// crossing.
func (f twoExp) taylorStep(level, w float64) (float64, error) {
	slope := f.deriv(w)
	if slope == 0 {
		return 0, fmt.Errorf("hybrid: zero output slope at expansion point w=%g", w)
	}
	return w + (level-f.at(w))/slope, nil
}

// slowEstimate solves for the crossing using only the slow eigenmode
// (|l1| < |l2| is guaranteed by the constructors below), giving the
// principled expansion point for taylorStep.
func (f twoExp) slowEstimate(level float64) (float64, error) {
	num := (level - f.vp) / (f.c1 * f.e1)
	if num <= 0 {
		return 0, fmt.Errorf("hybrid: slow-mode estimate undefined (ratio %g)", num)
	}
	return math.Log(num) / f.l1, nil
}

// fall10TwoExp builds the paper's mode (1,0) trajectory started from
// (V_N, V_O) = (VDD, VDD), with the printed coefficients
//
//	c2 = (VDD/2) [ (alpha+beta) CN R2 - 1 ] / beta,
//	c1 = VDD CN R2 - c2
//
// (the paper's 0.6 is VDD/2 for the supply its constants were typeset
// with; we keep it symbolic).
func (p Params) fall10TwoExp() twoExp {
	co := p.Coefficients10()
	vdd := p.Supply.VDD
	c2 := vdd * (float64((co.Alpha+co.Beta)*p.CN*p.R2) - 1) / (2 * co.Beta)
	c1 := float64(vdd*p.CN*p.R2) - c2
	return twoExp{
		vp: 0,
		c1: c1, c2: c2,
		e1: co.Alpha + co.Beta, e2: co.Alpha - co.Beta,
		l1: co.Lambda1, l2: co.Lambda2,
	}
}

// rise00TwoExp builds the mode (0,0) trajectory in the paper's eigenbasis
// from the state (vn0, vo0) at local time zero.
func (p Params) rise00TwoExp(vn0, vo0 float64) twoExp {
	co := p.Coefficients00()
	vdd := p.Supply.VDD
	// c1 + c2 = (vn0 - VDD) CN R2;  c1 e1 + c2 e2 = vo0 - VDD.
	cnr2 := p.CN * p.R2
	c1 := ((vo0 - vdd) - float64((vn0-vdd)*cnr2*(co.Alpha-co.Beta))) / (2 * co.Beta)
	c2 := float64((vn0-vdd)*cnr2) - c1
	return twoExp{
		vp: vdd,
		c1: c1, c2: c2,
		e1: co.Alpha + co.Beta, e2: co.Alpha - co.Beta,
		l1: co.Lambda1, l2: co.Lambda2,
	}
}

// CharlieFallPlusInf returns the equation (10) approximation of
// delta_fall(+inf): one Taylor step on the mode (1,0) trajectory, with
// the expansion point chosen by the slow-mode estimate. DMin included.
func (p Params) CharlieFallPlusInf() (float64, error) {
	f := p.fall10TwoExp()
	w, err := f.slowEstimate(p.Supply.Vth)
	if err != nil {
		return 0, err
	}
	d, err := f.taylorStep(p.Supply.Vth, w)
	if err != nil {
		return 0, err
	}
	return d + p.DMin, nil
}

// CharlieFallPlusInfAtW evaluates equation (10) literally at the supplied
// expansion point (use PaperW10 for the printed variant). DMin included.
func (p Params) CharlieFallPlusInfAtW(w float64) (float64, error) {
	d, err := p.fall10TwoExp().taylorStep(p.Supply.Vth, w)
	if err != nil {
		return 0, err
	}
	return d + p.DMin, nil
}

// VN01 returns V_N^{(0,1)}(Delta) = VDD + (X - VDD) e^{-Delta/(CN R1)},
// the internal-node voltage after spending Delta >= 0 in mode (0,1)
// starting from X (paper §V).
func (p Params) VN01(delta, x float64) float64 {
	return p.Supply.VDD + float64((x-p.Supply.VDD)*math.Exp(-delta/(p.CN*p.R1)))
}

// riseSwitchState returns the (V_N, V_O) state at the moment the gate
// enters mode (0,0) in the rising experiment with separation delta and
// initial V_N = x: after |delta| in mode (0,1) (delta >= 0) or mode (1,0)
// (delta < 0).
func (p Params) riseSwitchState(delta, x float64) (la.Vec2, error) {
	ts := math.Abs(delta)
	mode := Mode01
	if delta < 0 {
		mode = Mode10
	}
	sol, err := p.System(mode).Solve(la.Vec2{X: x, Y: 0})
	if err != nil {
		return la.Vec2{}, err
	}
	return sol.At(ts), nil
}

// CharlieRise returns the equation (11)/(12) approximation of
// delta_rise(delta) for initial V_N voltage x: one Taylor step on the
// closed-form mode (0,0) trajectory, expansion point from the slow-mode
// estimate. DMin included.
func (p Params) CharlieRise(delta, x float64) (float64, error) {
	v, err := p.riseSwitchState(delta, x)
	if err != nil {
		return 0, err
	}
	f := p.rise00TwoExp(v.X, v.Y)
	w, err := f.slowEstimate(p.Supply.Vth)
	if err != nil {
		return 0, err
	}
	d, err := f.taylorStep(p.Supply.Vth, w)
	if err != nil {
		return 0, err
	}
	return d + p.DMin, nil
}

// CharlieCharacteristic assembles all six characteristic delays from the
// closed-form expressions (8)-(12) (V_N = GND for the rising cases),
// mirroring Characteristic, which uses the exact crossing solver.
func (p Params) CharlieCharacteristic() (Characteristic, error) {
	var c Characteristic
	var err error
	c.FallMinusInf = p.CharlieFallMinusInf()
	c.FallZero = p.CharlieFallZero()
	if c.FallPlusInf, err = p.CharlieFallPlusInf(); err != nil {
		return c, err
	}
	if c.RiseMinusInf, err = p.CharlieRise(-SISFar, 0); err != nil {
		return c, err
	}
	if c.RiseZero, err = p.CharlieRise(0, 0); err != nil {
		return c, err
	}
	if c.RisePlusInf, err = p.CharlieRise(SISFar, 0); err != nil {
		return c, err
	}
	return c, nil
}
