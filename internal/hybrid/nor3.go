package hybrid

import (
	"fmt"
	"math"

	"hybriddelay/internal/waveform"
)

// NOR3Params parameterises the 3-input NOR extension: a three-deep pMOS
// stack with two internal nodes N1 (below T1) and N2 (below T2), and
// three parallel nMOS pull-downs.
type NOR3Params struct {
	RP1, RP2, RP3 float64 // stack resistances VDD->N1->N2->O (gates A, B, C)
	RN1, RN2, RN3 float64 // parallel pull-downs O->GND (gates A, B, C)
	CN1, CN2      float64 // internal node capacitances
	CO            float64 // output capacitance

	Supply waveform.Supply
	DMin   float64
}

// NOR3FromNOR2 extrapolates a 3-input parametrization from a fitted
// 2-input model: stack devices reuse the pMOS resistances, pull-downs
// the nMOS ones, and the second internal node gets the same capacitance
// as the first.
func NOR3FromNOR2(p Params) NOR3Params {
	return NOR3Params{
		RP1: p.R1, RP2: p.R2, RP3: p.R2,
		RN1: p.R3, RN2: p.R4, RN3: p.R4,
		CN1: p.CN, CN2: p.CN, CO: p.CO,
		Supply: p.Supply,
		DMin:   p.DMin,
	}
}

// Gate builds the SwitchGate: nodes (0, 1, 2) = (N1, N2, O).
func (p NOR3Params) Gate() SwitchGate {
	return SwitchGate{
		Name:      "nor3",
		NumInputs: 3,
		Caps:      []float64{p.CN1, p.CN2, p.CO},
		Branches: []SwitchBranch{
			{From: int(RailVDD), To: 0, R: p.RP1, Input: 0, OnWhenHigh: false},
			{From: 0, To: 1, R: p.RP2, Input: 1, OnWhenHigh: false},
			{From: 1, To: 2, R: p.RP3, Input: 2, OnWhenHigh: false},
			{From: 2, To: int(RailGND), R: p.RN1, Input: 0, OnWhenHigh: true},
			{From: 2, To: int(RailGND), R: p.RN2, Input: 1, OnWhenHigh: true},
			{From: 2, To: int(RailGND), R: p.RN3, Input: 2, OnWhenHigh: true},
		},
		OutNode: 2,
		Logic:   func(in []bool) bool { return !(in[0] || in[1] || in[2]) },
		Supply:  p.Supply,
		DMin:    p.DMin,
	}
}

// Validate checks plausibility.
func (p NOR3Params) Validate() error { return p.Gate().Validate() }

// FallingDelay3 computes the falling-output MIS delay of the 3-input
// NOR for rising inputs at offsets (0, dB, dC) relative to input A
// (negative offsets put that input first). The delay is measured from
// the earliest rising input, matching the 2-input convention.
func (p NOR3Params) FallingDelay3(dB, dC float64) (float64, error) {
	g := p.Gate()
	// Order the three switch instants.
	t0 := math.Min(0, math.Min(dB, dC))
	times := []float64{0 - t0, dB - t0, dC - t0} // shifted so earliest = 0
	phases := risingSchedule3(times)
	return g.GateDelay(phases, p.Supply.VDD, 0)
}

// RisingDelay3 computes the rising-output MIS delay for falling inputs
// at offsets (0, dB, dC) relative to input A, measured from the latest
// falling input. vInit fills the isolated internal nodes in the initial
// all-high state (GND is the worst case).
func (p NOR3Params) RisingDelay3(dB, dC, vInit float64) (float64, error) {
	g := p.Gate()
	t0 := math.Min(0, math.Min(dB, dC))
	times := []float64{0 - t0, dB - t0, dC - t0}
	phases := fallingSchedule3(times)
	last := math.Max(times[0], math.Max(times[1], times[2]))
	return g.GateDelay(phases, vInit, last)
}

// risingSchedule3 builds the phase list for inputs rising at the given
// times (all initially low).
func risingSchedule3(times []float64) []PhaseN {
	return schedule3(times, false)
}

// fallingSchedule3 builds the phase list for inputs falling at the given
// times (all initially high).
func fallingSchedule3(times []float64) []PhaseN {
	return schedule3(times, true)
}

func schedule3(times []float64, initiallyHigh bool) []PhaseN {
	type ev struct {
		t   float64
		idx int
	}
	evs := []ev{{times[0], 0}, {times[1], 1}, {times[2], 2}}
	// Insertion sort by time (3 elements).
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].t < evs[j-1].t; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	state := []bool{initiallyHigh, initiallyHigh, initiallyHigh}
	phases := []PhaseN{{Start: evs[0].t - 1e-12, Inputs: append([]bool(nil), state...)}}
	// Tiny negative lead keeps phase 0 as the settled pre-state.
	for _, e := range evs {
		state[e.idx] = !initiallyHigh
		phases = append(phases, PhaseN{Start: e.t, Inputs: append([]bool(nil), state...)})
	}
	return phases
}

// Characteristic3 summarizes the 3-input MIS behaviour: the falling
// delays for all-simultaneous, pairwise-simultaneous and fully separated
// input arrivals, plus the corresponding rising delays.
type Characteristic3 struct {
	FallAllZero  float64 // all three inputs rise together
	FallTwoZero  float64 // A and B together, C far later
	FallSIS      float64 // A alone (others far later)
	RiseAllZero  float64 // all three fall together
	RiseSIS      float64 // C falls last, far after A and B
	RiseWorstSep float64 // stack order worst case: A last
}

// Characteristic3 measures the summary delays (worst-case internal
// fills).
func (p NOR3Params) Characteristic3() (Characteristic3, error) {
	var c Characteristic3
	var err error
	if c.FallAllZero, err = p.FallingDelay3(0, 0); err != nil {
		return c, err
	}
	if c.FallTwoZero, err = p.FallingDelay3(0, SISFar); err != nil {
		return c, err
	}
	if c.FallSIS, err = p.FallingDelay3(SISFar, 2*SISFar); err != nil {
		return c, err
	}
	if c.RiseAllZero, err = p.RisingDelay3(0, 0, 0); err != nil {
		return c, err
	}
	if c.RiseSIS, err = p.RisingDelay3(-SISFar, 0, 0); err != nil {
		return c, err
	}
	// A last: dB = dC = -SISFar means B and C fell long before A.
	if c.RiseWorstSep, err = p.RisingDelay3(-SISFar, -SISFar, 0); err != nil {
		return c, err
	}
	return c, nil
}

// String renders the parameters.
func (p NOR3Params) String() string {
	return fmt.Sprintf("RP=%.1f/%.1f/%.1fkΩ RN=%.1f/%.1f/%.1fkΩ CN1=%.1faF CN2=%.1faF CO=%.1faF δmin=%.1fps",
		p.RP1/1e3, p.RP2/1e3, p.RP3/1e3, p.RN1/1e3, p.RN2/1e3, p.RN3/1e3,
		p.CN1/1e-18, p.CN2/1e-18, p.CO/1e-18, p.DMin/1e-12)
}
