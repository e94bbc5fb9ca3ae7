package hybrid

import (
	"fmt"
	"math"

	"hybriddelay/internal/la"
)

// VNInitial enumerates the internal-node initial values studied for the
// rising-output experiments (paper Fig. 6). Since mode (1,1) never
// changes V_N, the value it held when the gate last entered (1,1) is part
// of the gate's hidden state; the paper examines GND (worst case, used
// for parametrization), VDD/2 and VDD.
type VNInitial int

// The three studied initial values of V_N in mode (1,1).
const (
	VNGround VNInitial = iota // V_N = GND (paper's worst case)
	VNHalf                    // V_N = VDD/2
	VNSupply                  // V_N = VDD
)

// Voltage resolves the initial value against the supply.
func (v VNInitial) Voltage(s Params) float64 {
	switch v {
	case VNGround:
		return 0
	case VNHalf:
		return s.Supply.VDD / 2
	case VNSupply:
		return s.Supply.VDD
	}
	panic(fmt.Sprintf("hybrid: unknown VNInitial %d", int(v)))
}

// String implements fmt.Stringer.
func (v VNInitial) String() string {
	switch v {
	case VNGround:
		return "GND"
	case VNHalf:
		return "VDD/2"
	case VNSupply:
		return "VDD"
	}
	return fmt.Sprintf("VNInitial(%d)", int(v))
}

// FallingDelay computes the falling-output MIS delay delta_fall(Delta) =
// tO - min(tA, tB) + delta_min for input separation Delta = tB - tA
// (both inputs rising, paper §IV case 1-2).
//
// The gate starts settled in mode (0,0) (V_N = V_O = VDD). At t = 0 the
// earlier input rises: A for Delta >= 0 (mode (1,0)), B for Delta < 0
// (mode (0,1)). At t = |Delta| the later input rises and the gate enters
// mode (1,1). The delay is the first downward V_th crossing of V_O, which
// may occur before or after the second switch.
func (p Params) FallingDelay(delta float64) (float64, error) {
	ts := math.Abs(delta)
	first := Mode10
	if delta < 0 {
		first = Mode01
	}
	v0 := la.Vec2{X: p.Supply.VDD, Y: p.Supply.VDD}
	var segs [2]segment
	tr, err := p.solveSchedule(v0, []Phase{
		{Start: 0, Mode: first},
		{Start: ts, Mode: Mode11},
	}, segs[:0])
	if err != nil {
		return 0, err
	}
	tO, ok := tr.FirstOutputCrossing(p.Supply.Vth, false, 0)
	if !ok {
		return 0, fmt.Errorf("hybrid: output never falls (delta=%g)", delta)
	}
	return tO + p.DMin, nil
}

// RisingDelay computes the rising-output MIS delay delta_rise(Delta) =
// tO - max(tA, tB) + delta_min for input separation Delta = tB - tA
// (both inputs falling, paper §IV).
//
// The gate starts settled in mode (1,1) with V_O = GND and V_N at the
// supplied initial value (see VNInitial). At t = 0 the earlier input
// falls: A for Delta >= 0 (mode (0,1)), B for Delta < 0 (mode (1,0)).
// At t = |Delta| the later input falls and the gate enters mode (0,0).
// The delay is the first upward V_th crossing of V_O minus |Delta|.
func (p Params) RisingDelay(delta float64, vn VNInitial) (float64, error) {
	return p.RisingDelayFrom(delta, vn.Voltage(p))
}

// RisingDelayFrom is RisingDelay with an arbitrary initial V_N voltage.
func (p Params) RisingDelayFrom(delta float64, vn0 float64) (float64, error) {
	ts := math.Abs(delta)
	first := Mode01
	if delta < 0 {
		first = Mode10
	}
	v0 := la.Vec2{X: vn0, Y: 0}
	var segs [2]segment
	tr, err := p.solveSchedule(v0, []Phase{
		{Start: 0, Mode: first},
		{Start: ts, Mode: Mode00},
	}, segs[:0])
	if err != nil {
		return 0, err
	}
	tO, ok := tr.FirstOutputCrossing(p.Supply.Vth, true, 0)
	if !ok {
		return 0, fmt.Errorf("hybrid: output never rises (delta=%g, vn0=%g)", delta, vn0)
	}
	return tO - ts + p.DMin, nil
}

// SISFar is the input separation used to stand in for Delta = +/-
// infinity, matching the paper's 2e-10 s.
const SISFar = 200e-12

// Characteristic holds the six characteristic Charlie delays of §V.
type Characteristic struct {
	FallMinusInf float64 // delta_fall(-inf)
	FallZero     float64 // delta_fall(0)
	FallPlusInf  float64 // delta_fall(+inf)
	RiseMinusInf float64 // delta_rise(-inf)
	RiseZero     float64 // delta_rise(0)
	RisePlusInf  float64 // delta_rise(+inf)
}

// Characteristic computes the six characteristic delays of the model by
// exact trajectory evaluation, using V_N = GND for the rising cases as
// the paper does for parametrization.
func (p Params) Characteristic() (Characteristic, error) {
	var c Characteristic
	var err error
	if c.FallMinusInf, err = p.FallingDelay(-SISFar); err != nil {
		return c, err
	}
	if c.FallZero, err = p.FallingDelay(0); err != nil {
		return c, err
	}
	if c.FallPlusInf, err = p.FallingDelay(SISFar); err != nil {
		return c, err
	}
	if c.RiseMinusInf, err = p.RisingDelay(-SISFar, VNGround); err != nil {
		return c, err
	}
	if c.RiseZero, err = p.RisingDelay(0, VNGround); err != nil {
		return c, err
	}
	if c.RisePlusInf, err = p.RisingDelay(SISFar, VNGround); err != nil {
		return c, err
	}
	return c, nil
}

// AsSlice returns the six delays in a fixed order (fall -inf, 0, +inf,
// rise -inf, 0, +inf), convenient for residual construction.
func (c Characteristic) AsSlice() []float64 {
	return []float64{
		c.FallMinusInf, c.FallZero, c.FallPlusInf,
		c.RiseMinusInf, c.RiseZero, c.RisePlusInf,
	}
}

// SweepPoint is one (Delta, delay) sample of a model MIS sweep.
type SweepPoint struct {
	Delta float64
	Delay float64
}

// FallingSweep samples delta_fall over the given separations (Fig. 5).
func (p Params) FallingSweep(deltas []float64) ([]SweepPoint, error) {
	return sweep(deltas, p.FallingDelay)
}

// RisingSweep samples delta_rise over the given separations for a given
// V_N initial value (Fig. 6).
func (p Params) RisingSweep(deltas []float64, vn VNInitial) ([]SweepPoint, error) {
	return sweep(deltas, func(d float64) (float64, error) { return p.RisingDelay(d, vn) })
}

// sweep samples a delay function over the given separations.
func sweep(deltas []float64, delay func(delta float64) (float64, error)) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(deltas))
	for _, d := range deltas {
		v, err := delay(d)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{Delta: d, Delay: v})
	}
	return out, nil
}
