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

// NOR2 is the paper's 2-input CMOS NOR — the default gate of the
// pipeline and the golden reference of every figure.
var NOR2 Gate = nor2{}

func init() { Register(NOR2) }

type nor2 struct{}

func (nor2) Name() string         { return "nor2" }
func (nor2) Describe() string     { return "2-input CMOS NOR, the paper's Fig. 1 gate" }
func (nor2) Arity() int           { return 2 }
func (nor2) Logic(in []bool) bool { return !(in[0] || in[1]) }

func (g nor2) NewBench(p nor.Params) (Bench, error) { return newBench(g, p) }

// Stamp implements Gate: the Fig. 1 devices between the given input
// nodes and a fresh output node, with the internal node N created
// before the output. Settled voltages: the output follows the NOR
// logic; N is VDD while the top pMOS conducts (A low), tracks the low
// output while only the lower stack device conducts (A high, B low),
// and takes the paper's worst case GND when isolated in mode (1,1).
func (g nor2) Stamp(c *spice.Circuit, prefix, outName string, p nor.Params, vdd spice.NodeID, in []spice.NodeID, init []bool) (Subcircuit, error) {
	if err := stampArgs(g, p, in, init); err != nil {
		return Subcircuit{}, err
	}
	n := c.Node(prefix + "n")
	o := c.Node(outName)
	nor.StampNOR2(c, prefix, p, vdd, in[0], in[1], n, o)
	vN := 0.0
	if !init[0] {
		vN = p.Supply.VDD
	}
	vO := 0.0
	if g.Logic(init) {
		vO = p.Supply.VDD
	}
	return Subcircuit{
		Out:      o,
		Internal: []spice.NodeID{n},
		Initial:  map[spice.NodeID]float64{n: vN, o: vO},
	}, nil
}

func (g nor2) BuildModels(meas Measurement, supply waveform.Supply, expDMin float64) (Models, error) {
	return buildModels(g, meas, supply, expDMin)
}

// norFrame: the pair characteristic is already in the NOR frame the fit
// expects.
func (nor2) norFrame(c hybrid.Characteristic) hybrid.Characteristic { return c }

// wrap: the fitted parameters drive the closed-form 2x2 channel.
func (nor2) wrap(p hybrid.Params) Model { return NOR2Model{P: p} }

func (nor2) pairOffsets(delta float64, _ bool) []float64 { return []float64{0, delta} }

// tail: the falling output settles within 300 ps of the last edge, the
// slower rising one through the pMOS stack within 400 ps.
func (nor2) tail(rising bool) float64 {
	if rising {
		return 300e-12
	}
	return 400e-12
}

func (nor2) arcs(_ *Analog, c hybrid.Characteristic) (inertial.Arcs, error) { return NOR2Arcs(c), nil }

// NOR2Arcs maps the NOR pair characteristic onto per-pin arcs: a falling
// output caused by A corresponds to delta_fall(+inf) (A switched first),
// caused by B to delta_fall(-inf); a rising output caused by A
// corresponds to delta_rise(-inf) (A switched last), caused by B to
// delta_rise(+inf).
func NOR2Arcs(c hybrid.Characteristic) inertial.Arcs {
	return inertial.Arcs{
		{Fall: c.FallPlusInf, Rise: c.RiseMinusInf},
		{Fall: c.FallMinusInf, Rise: c.RisePlusInf},
	}
}

// NOR2Model applies the paper's closed-form 2-input hybrid NOR channel.
type NOR2Model struct {
	P hybrid.Params
}

// Apply implements Model.
func (m NOR2Model) Apply(in []trace.Trace, until float64) (trace.Trace, error) {
	if len(in) != 2 {
		return trace.Trace{}, fmt.Errorf("gate nor2: model wants 2 inputs, got %d", len(in))
	}
	return hybrid.ApplyNOR(m.P, in[0], in[1], until, m.P.Supply.VDD)
}

// String implements Model.
func (m NOR2Model) String() string { return m.P.String() }
