package gate

import (
	"fmt"

	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// NAND2 is the 2-input CMOS NAND — the exact structural dual of the
// paper's NOR (parallel pMOS pull-ups, serial nMOS stack). Its hybrid
// model is the mirrored NOR model; its golden bench is the mirrored
// netlist built from the same device parameters.
var NAND2 Gate = nand2{}

func init() { Register(NAND2) }

type nand2 struct{}

func (nand2) Name() string         { return "nand2" }
func (nand2) Describe() string     { return "2-input CMOS NAND, structural dual of the NOR" }
func (nand2) Arity() int           { return 2 }
func (nand2) Logic(in []bool) bool { return !(in[0] && in[1]) }

func (g nand2) NewBench(p nor.Params) (Bench, error) { return newBench(g, p) }

// Stamp implements Gate: the dual NAND devices with the internal stack
// node M created first. Settled voltages: the output follows the NAND
// logic; M is pulled to GND while the bottom nMOS conducts (A high),
// tracks the high output while only the upper stack device conducts
// (A low, B high), and starts discharged (GND) when isolated in state
// (0,0) — the golden start NAND2Model.Apply assumes too.
func (g nand2) Stamp(c *spice.Circuit, prefix, outName string, p nor.Params, vdd spice.NodeID, in []spice.NodeID, init []bool) (Subcircuit, error) {
	if err := stampArgs(g, p, in, init); err != nil {
		return Subcircuit{}, err
	}
	m := c.Node(prefix + "m")
	o := c.Node(outName)
	nor.StampNAND2(c, prefix, p, vdd, in[0], in[1], m, o)
	vM := 0.0
	if !init[0] && init[1] {
		vM = p.Supply.VDD
	}
	vO := 0.0
	if g.Logic(init) {
		vO = p.Supply.VDD
	}
	return Subcircuit{
		Out:      o,
		Internal: []spice.NodeID{m},
		Initial:  map[spice.NodeID]float64{m: vM, o: vO},
	}, nil
}

func (g nand2) BuildModels(meas Measurement, supply waveform.Supply, expDMin float64) (Models, error) {
	return buildModels(g, meas, supply, expDMin)
}

// norFrame fits the dual NOR model on the mirrored characteristic (the
// duality frame change of hybrid.Characteristic.Mirror).
func (nand2) norFrame(c hybrid.Characteristic) hybrid.Characteristic { return c.Mirror() }

// wrap flips the dual NOR fit back into the NAND parametrization for
// the channel.
func (nand2) wrap(p hybrid.Params) Model { return NAND2Model{N: hybrid.NANDFromDual(p)} }

func (nand2) pairOffsets(delta float64, _ bool) []float64 { return []float64{0, delta} }

// tail: the falling output discharges through the nMOS stack within
// 400 ps of the last edge, the rising one within 300 ps.
func (nand2) tail(rising bool) float64 {
	if rising {
		return 400e-12
	}
	return 300e-12
}

func (nand2) arcs(_ *Analog, c hybrid.Characteristic) (inertial.Arcs, error) {
	return NAND2Arcs(c), nil
}

// NAND2Arcs maps the NAND pair characteristic onto per-pin arcs. NAND
// falling delays are measured from the later rising input (the serial
// stack only discharges once both inputs are high), so delta_fall(-inf)
// is the A-caused arc and delta_fall(+inf) the B-caused one; rising
// delays are measured from the earlier falling input, so
// delta_rise(+inf) is A-caused and delta_rise(-inf) B-caused.
func NAND2Arcs(c hybrid.Characteristic) inertial.Arcs {
	return inertial.Arcs{
		{Fall: c.FallMinusInf, Rise: c.RisePlusInf},
		{Fall: c.FallPlusInf, Rise: c.RiseMinusInf},
	}
}

// NAND2Model applies the duality-derived 2-input hybrid NAND channel.
type NAND2Model struct {
	N hybrid.NANDParams
}

// Apply implements Model. The initial stack-node voltage V_M = 0
// matches the golden bench's initial condition.
func (m NAND2Model) Apply(in []trace.Trace, until float64) (trace.Trace, error) {
	if len(in) != 2 {
		return trace.Trace{}, fmt.Errorf("gate nand2: model wants 2 inputs, got %d", len(in))
	}
	return hybrid.ApplyNAND(m.N, in[0], in[1], until, 0)
}

// String implements Model.
func (m NAND2Model) String() string { return m.N.String() }
