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

func (nor2) NewBench(p nor.Params) (Bench, error) {
	b, err := nor.New(p)
	if err != nil {
		return nil, err
	}
	return &NOR2Bench{B: b}, nil
}

// Stamp implements Gate: the Fig. 1 devices between the given input
// nodes and a fresh output node, with the internal node N created first
// (matching the standalone bench's node order). Settled voltages: the
// output follows the NOR logic; N is VDD while the top pMOS conducts
// (A low), tracks the low output while only the lower stack device
// conducts (A high, B low), and takes the paper's worst case GND when
// isolated in mode (1,1).
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

// NOR2Bench adapts the transistor-level NOR testbench to the generic
// Bench interface.
type NOR2Bench struct {
	B *nor.Bench
}

// Gate implements Bench.
func (b *NOR2Bench) Gate() Gate { return NOR2 }

// Params implements Bench.
func (b *NOR2Bench) Params() nor.Params { return b.B.P }

// SolverStats exposes the underlying bench's cumulative MNA solver
// counters for traffic reporting.
func (b *NOR2Bench) SolverStats() spice.SolverStats { return b.B.SolverStats() }

// Measure implements Bench: the six characteristic delays (worst-case
// V_N = GND for the rising experiments, as in the paper) plus the SIS
// arc mapping derived from them.
func (b *NOR2Bench) Measure() (Measurement, error) {
	c, err := b.B.Characteristic()
	if err != nil {
		return Measurement{}, err
	}
	pair := toCharacteristic(c)
	return Measurement{Pair: pair, Arcs: NOR2Arcs(pair)}, nil
}

// Golden implements Bench: the analog transient over the input traces,
// digitized at V_th. The bench starts settled in state (0,0) with the
// output and internal node high.
func (b *NOR2Bench) Golden(inputs []trace.Trace, until float64) (trace.Trace, error) {
	if len(inputs) != 2 {
		return trace.Trace{}, fmt.Errorf("gate nor2: want 2 inputs, got %d", len(inputs))
	}
	sigs, bps, err := InputSignals(b.B.P, inputs)
	if err != nil {
		return trace.Trace{}, err
	}
	supply := b.B.P.Supply
	out, err := b.B.RunOutput(sigs[0], sigs[1], until, supply.VDD, supply.VDD, bps)
	if err != nil {
		return trace.Trace{}, fmt.Errorf("gate nor2: golden transient: %w", err)
	}
	return trace.Digitize(out, supply.Vth), nil
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
