package hybrid

import (
	"fmt"
	"math"

	"hybriddelay/internal/fit"
	"hybriddelay/internal/waveform"
)

// This file implements the parametrization procedure of paper §V:
// determine (R1..R4, CN, CO) and the pure delay delta_min so that the
// model's characteristic Charlie delays match measured values (from the
// analog golden reference).
//
// Two structural facts shape the procedure, both derived in the paper:
//
//  1. Only five products matter — CN*R1, CN*R2, CO*R2, CO*R3, CO*R4 —
//     so one capacitance can be fixed arbitrarily (we pin CO and fit
//     R1..R4 and CN), removing the gauge freedom.
//
//  2. Without a pure delay the falling targets are unreachable whenever
//     delta_fall(-inf)/delta_fall(0) deviates too much from
//     (R3+R4)/R3 ~= 2; delta_min shifts both so the ratio becomes ~2
//     (the paper picks delta_min = 18 ps this way).

// FitOptions configures FitCharacteristic.
type FitOptions struct {
	// DMin fixes the pure delay. If negative, it is chosen automatically
	// so that the shifted falling ratio is exactly 2 (paper §IV):
	// dmin = 2*delta_fall(0) - delta_fall(-inf), clamped at >= 0.
	DMin float64
	// CO pins the output capacitance (gauge fixing). Default: the
	// Table I value 617.259 aF.
	CO float64
	// Weights scales the six residuals (same order as
	// Characteristic.AsSlice); nil = all ones.
	Weights []float64
}

// fitMaxIter bounds FitCharacteristic's Levenberg-Marquardt iterations.
const fitMaxIter = 120

// FitReport describes the outcome of a parametrization.
type FitReport struct {
	Target    Characteristic // what was asked for
	Achieved  Characteristic // what the fitted model delivers
	DMin      float64        // pure delay used
	Cost      float64        // final 0.5*||residual||^2 (relative units)
	Converged bool
	Evals     int
}

// AutoDMin returns the pure delay that makes the falling-delay ratio
// fittable: (FallMinusInf - d) / (FallZero - d) = 2, i.e.
// d = 2*FallZero - FallMinusInf (clamped to >= 0).
func AutoDMin(target Characteristic) float64 {
	d := 2*target.FallZero - target.FallMinusInf
	if d < 0 {
		return 0
	}
	return d
}

// FitCharacteristic calibrates model parameters against measured
// characteristic Charlie delays (paper §V / Table I). The rising targets
// are matched with the worst-case V_N = GND convention the paper uses.
func FitCharacteristic(target Characteristic, supply waveform.Supply, opt *FitOptions) (Params, FitReport, error) {
	o := FitOptions{DMin: -1}
	if opt != nil {
		o = *opt
	}
	if o.CO <= 0 {
		o.CO = 617.259e-18
	}
	dmin := o.DMin
	if dmin < 0 {
		dmin = AutoDMin(target)
	}
	weights := o.Weights
	if weights == nil {
		weights = []float64{1, 1, 1, 1, 1, 1}
	}
	if len(weights) != 6 {
		return Params{}, FitReport{}, fmt.Errorf("hybrid: want 6 weights, got %d", len(weights))
	}
	for _, v := range target.AsSlice() {
		if v <= dmin {
			return Params{}, FitReport{}, fmt.Errorf("hybrid: target delay %g not above pure delay %g", v, dmin)
		}
	}

	guess := initialGuess(target, supply, o.CO, dmin)

	// Fit x = log(R1, R2, R3, R4, CN) for positivity.
	x0 := []float64{
		math.Log(guess.R1), math.Log(guess.R2), math.Log(guess.R3),
		math.Log(guess.R4), math.Log(guess.CN),
	}
	build := func(x []float64) Params {
		return Params{
			R1: math.Exp(x[0]), R2: math.Exp(x[1]), R3: math.Exp(x[2]), R4: math.Exp(x[3]),
			CN: math.Exp(x[4]), CO: o.CO,
			Supply: supply, DMin: dmin,
		}
	}
	targetSlice := target.AsSlice()
	// Soft log-space bounds keep ill-posed fits (e.g. the forced
	// DMin = 0 ablation, which cannot reach its targets) from collapsing
	// a resistance or capacitance to zero or infinity.
	loR, hiR := math.Log(100.0), math.Log(10e6)
	loC, hiC := math.Log(o.CO/1e4), math.Log(o.CO*10)
	bound := func(x, lo, hi float64) float64 {
		switch {
		case x < lo:
			return lo - x
		case x > hi:
			return x - hi
		default:
			return 0
		}
	}
	resid := func(x []float64) []float64 {
		p := build(x)
		out := make([]float64, 11)
		c, err := p.Characteristic()
		if err != nil {
			for i := 0; i < 6; i++ {
				out[i] = 1e6
			}
		} else {
			got := c.AsSlice()
			for i := 0; i < 6; i++ {
				out[i] = weights[i] * (got[i] - targetSlice[i]) / targetSlice[i]
			}
		}
		for i := 0; i < 4; i++ {
			out[6+i] = 0.3 * bound(x[i], loR, hiR)
		}
		out[10] = 0.3 * bound(x[4], loC, hiC)
		return out
	}
	res, err := fit.LevenbergMarquardt(resid, x0, &fit.LeastSquaresOptions{
		MaxIter: fitMaxIter,
		Scale:   []float64{1, 1, 1, 1, 1},
	})
	if err != nil && !res.Converged {
		// Polish with Nelder-Mead as a fallback; LM can stall on the
		// flat CN direction the paper describes.
		nm, nmErr := fit.Restarted(func(x []float64) float64 {
			r := resid(x)
			s := 0.0
			for _, v := range r {
				s += float64(v * v)
			}
			return 0.5 * s
		}, res.X, nil, 3, 1e-10)
		if nmErr == nil && nm.F < res.Cost {
			res.X = nm.X
			res.Cost = nm.F
			res.Converged = nm.Converged
		}
	}
	p := build(res.X)
	achieved, err := p.Characteristic()
	if err != nil {
		return p, FitReport{}, fmt.Errorf("hybrid: fitted model is degenerate: %w", err)
	}
	report := FitReport{
		Target:    target,
		Achieved:  achieved,
		DMin:      dmin,
		Cost:      res.Cost,
		Converged: res.Converged,
		Evals:     res.Evals,
	}
	return p, report, nil
}

// initialGuess inverts the exact falling formulas (8)-(9) for R3 and R4
// and seeds the remaining parameters from the rising targets with
// single-pole estimates.
func initialGuess(target Characteristic, supply waveform.Supply, co, dmin float64) Params {
	ln2 := -math.Log(supply.Vth / supply.VDD)
	r4 := (target.FallMinusInf - dmin) / (ln2 * co)
	// (8): z = ln2*CO*R3*R4/(R3+R4)  =>  R3 = 1/(ln2*CO/z - 1/R4).
	z := target.FallZero - dmin
	den := ln2*co/z - 1/r4
	r3 := r4
	if den > 0 {
		r3 = 1 / den
	}
	// Rising: the (0,0) charge path is roughly a single pole with
	// tau ~= CO*(R1+R2); delta_rise(0) - dmin ~= ln2 * CO * (R1+R2).
	r12 := (target.RiseZero - dmin) / (ln2 * co)
	r1 := r12 / 2
	r2 := r12 / 2
	if r1 <= 0 {
		r1, r2 = r3, r3
	}
	return Params{
		R1: r1, R2: r2, R3: r3, R4: r4,
		CN: co / 10, CO: co,
		Supply: supply, DMin: dmin,
	}
}
