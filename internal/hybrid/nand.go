package hybrid

import (
	"fmt"

	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// This file extends the paper's model to the 2-input CMOS NAND gate —
// the generalization the paper's conclusion points to. No new analysis
// is needed: the NAND is the exact structural dual of the NOR. Mapping
// every voltage through V -> VDD - V exchanges VDD and GND and turns
// each pMOS into an nMOS at the mirrored position:
//
//	NOR  T1 (pMOS, gate A, VDD->N)  <->  NAND nMOS, gate A, M->GND
//	NOR  T2 (pMOS, gate B, N->O)    <->  NAND nMOS, gate B, O->M
//	NOR  T3 (nMOS, gate A, O->GND)  <->  NAND pMOS, gate A, VDD->O
//	NOR  T4 (nMOS, gate B, O->GND)  <->  NAND pMOS, gate B, VDD->O
//
// so the NAND's internal node M sits in the *nMOS* stack and the MIS
// effects mirror: the falling NAND output (both inputs rising, serial
// discharge) shows the slow-down with the M-history dependence, the
// rising output (parallel pMOS) shows the speed-up. Every NAND delay
// query below is answered by the dual NOR model on mirrored state —
// which also means the closed-form Charlie machinery transfers verbatim.

// NANDParams parameterises the hybrid NAND model. Resistor names follow
// the NAND's own topology.
type NANDParams struct {
	RPA float64 // pMOS pull-up driven by input A (VDD -> O) [Ohm]
	RPB float64 // pMOS pull-up driven by input B (VDD -> O) [Ohm]
	RNB float64 // stack nMOS driven by input B (O -> M) [Ohm]
	RNA float64 // stack nMOS driven by input A (M -> GND) [Ohm]
	CM  float64 // internal stack-node capacitance [F]
	CO  float64 // output capacitance [F]

	Supply waveform.Supply
	DMin   float64 // pure delay [s]
}

// Dual returns the NOR parameter set whose mirrored dynamics are exactly
// this NAND's dynamics.
func (n NANDParams) Dual() Params {
	return Params{
		R1: n.RNA, R2: n.RNB, R3: n.RPA, R4: n.RPB,
		CN: n.CM, CO: n.CO,
		Supply: n.Supply,
		DMin:   n.DMin,
	}
}

// NANDFromDual builds the NAND parameter set dual to a NOR model —
// useful to reuse a Table I style calibration on the mirrored gate.
func NANDFromDual(p Params) NANDParams {
	return NANDParams{
		RPA: p.R3, RPB: p.R4, RNB: p.R2, RNA: p.R1,
		CM: p.CN, CO: p.CO,
		Supply: p.Supply,
		DMin:   p.DMin,
	}
}

// Validate checks physical plausibility.
func (n NANDParams) Validate() error {
	if err := n.Dual().Validate(); err != nil {
		return fmt.Errorf("nand: %w", err)
	}
	return nil
}

// String renders the parameters.
func (n NANDParams) String() string {
	return fmt.Sprintf(
		"RPA=%.3fkΩ RPB=%.3fkΩ RNB=%.3fkΩ RNA=%.3fkΩ CM=%.3faF CO=%.3faF δmin=%.1fps",
		n.RPA/1e3, n.RPB/1e3, n.RNB/1e3, n.RNA/1e3, n.CM/1e-18, n.CO/1e-18, n.DMin/1e-12)
}

// mirrorVoltage maps a NAND node voltage into the dual NOR frame.
func (n NANDParams) mirrorVoltage(v float64) float64 { return n.Supply.VDD - v }

// FallingDelay computes the falling-output NAND MIS delay for input
// separation Delta = tB - tA (both inputs rising): the gate starts
// settled in input state (0,0) with the output high and discharges
// through the serial nMOS stack, so the delay is measured from the
// *later* input and exhibits the MIS slow-down. vm0 is the initial
// voltage of the internal stack node M — state (0,0) isolates M, so its
// value is history the model cannot know (the dual of the paper's V_N
// discussion); the worst case is VM = VDD.
func (n NANDParams) FallingDelay(delta float64, vm0 float64) (float64, error) {
	// Dual: NOR rising delay with V_N = VDD - V_M.
	return n.Dual().RisingDelayFrom(delta, n.mirrorVoltage(vm0))
}

// RisingDelay computes the rising-output NAND MIS delay for input
// separation Delta = tB - tA (both inputs falling): the parallel pMOS
// pull the output up, the delay is measured from the *earlier* input and
// exhibits the MIS speed-up.
func (n NANDParams) RisingDelay(delta float64) (float64, error) {
	return n.Dual().FallingDelay(delta)
}

// Mirror exchanges the falling and rising delay triples index-wise —
// the NAND/NOR duality frame change under V -> VDD - V. It is its own
// inverse, so it converts in both directions (NOR-frame to NAND-frame
// and back).
func (c Characteristic) Mirror() Characteristic {
	return Characteristic{
		FallMinusInf: c.RiseMinusInf,
		FallZero:     c.RiseZero,
		FallPlusInf:  c.RisePlusInf,
		RiseMinusInf: c.FallMinusInf,
		RiseZero:     c.FallZero,
		RisePlusInf:  c.FallPlusInf,
	}
}

// Characteristic computes the six characteristic Charlie delays of the
// NAND (worst-case V_M = VDD for the falling cases): the mirrored dual
// NOR characteristic.
func (n NANDParams) Characteristic() (Characteristic, error) {
	dual, err := n.Dual().Characteristic()
	if err != nil {
		return Characteristic{}, err
	}
	return dual.Mirror(), nil
}

// FallingSweep samples the falling NAND delays over the separations.
func (n NANDParams) FallingSweep(deltas []float64, vm0 float64) ([]SweepPoint, error) {
	return sweep(deltas, func(d float64) (float64, error) { return n.FallingDelay(d, vm0) })
}

// RisingSweep samples the rising NAND delays over the separations.
func (n NANDParams) RisingSweep(deltas []float64) ([]SweepPoint, error) {
	return sweep(deltas, n.RisingDelay)
}

// ApplyNAND runs two digital input traces through the hybrid NAND
// channel: by duality, the dual NOR channel driven with inverted inputs
// produces the inverted output with identical timing. vm0 is the initial
// internal stack-node voltage.
func ApplyNAND(n NANDParams, a, b trace.Trace, until float64, vm0 float64) (trace.Trace, error) {
	out, err := ApplyNOR(n.Dual(), a.Invert(), b.Invert(), until, n.mirrorVoltage(vm0))
	if err != nil {
		return trace.Trace{}, err
	}
	return out.Invert(), nil
}
