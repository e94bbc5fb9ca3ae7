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

// NOR3 is the 3-input CMOS NOR extension: a three-deep pMOS stack with
// two internal nodes and three parallel pull-downs — the "multi-input
// gate" direction of the paper's title beyond the 2-input case it
// evaluates. Its hybrid model is the generalized switch-level RC gate
// (hybrid.SwitchGate) extrapolated from a 2-input fit of the bench's
// pin-(0,1) projection.
var NOR3 Gate = nor3{}

func init() { Register(NOR3) }

// farPin is the input separation that parks the third pin far away from
// the pin-(0,1) projection experiments: one SIS separation beyond the
// pair's ±SISFar MIS window, so its switch neither overlaps the window
// nor the measured output transition, while keeping the dead transient
// tail after the measurement short.
const farPin = 2 * nor.SISFar

type nor3 struct{}

func (nor3) Name() string         { return "nor3" }
func (nor3) Describe() string     { return "3-input CMOS NOR extension (three-deep pMOS stack)" }
func (nor3) Arity() int           { return 3 }
func (nor3) Logic(in []bool) bool { return !(in[0] || in[1] || in[2]) }

func (nor3) NewBench(p nor.Params) (Bench, error) {
	b, err := nor.NewNOR3(p)
	if err != nil {
		return nil, err
	}
	return &NOR3Bench{B: b}, nil
}

// Stamp implements Gate: the three-deep stack with internal nodes N1
// and N2 created first. Settled voltages follow the stack conduction
// from the top: N1 is VDD while A is low, N2 is VDD while A and B are
// both low; any node cut off from VDD ends at GND (either pulled low
// through the conducting lower stack onto the low output, or isolated
// at the paper's worst case).
func (g nor3) Stamp(c *spice.Circuit, prefix, outName string, p nor.Params, vdd spice.NodeID, in []spice.NodeID, init []bool) (Subcircuit, error) {
	if err := stampArgs(g, p, in, init); err != nil {
		return Subcircuit{}, err
	}
	n1 := c.Node(prefix + "n1")
	n2 := c.Node(prefix + "n2")
	o := c.Node(outName)
	nor.StampNOR3(c, prefix, p, vdd, in[0], in[1], in[2], n1, n2, o)
	vdd0 := p.Supply.VDD
	vN1, vN2, vO := 0.0, 0.0, 0.0
	if !init[0] {
		vN1 = vdd0
		if !init[1] {
			vN2 = vdd0
		}
	}
	if g.Logic(init) {
		vO = vdd0
	}
	return Subcircuit{
		Out:      o,
		Internal: []spice.NodeID{n1, n2},
		Initial:  map[spice.NodeID]float64{n1: vN1, n2: vN2, o: vO},
	}, nil
}

func (g nor3) BuildModels(meas Measurement, supply waveform.Supply, expDMin float64) (Models, error) {
	return buildModels(g, meas, supply, expDMin)
}

// norFrame: the pair projection is NOR-framed, so the 2-input fit
// applies directly.
func (nor3) norFrame(c hybrid.Characteristic) hybrid.Characteristic { return c }

// wrap: the fit's R2 lumps the two lower stack devices (T2 plus the
// always-on T3 of the held-low pin C), so the 3-stack model splits it
// across them, keeping the total path resistance the fit actually
// measured. The result drives the generalized switch-level channel.
func (nor3) wrap(p hybrid.Params) Model {
	return NOR3Model{P: hybrid.NOR3Params{
		RP1: p.R1, RP2: p.R2 / 2, RP3: p.R2 / 2,
		RN1: p.R3, RN2: p.R4, RN3: p.R4,
		CN1: p.CN, CN2: p.CN, CO: p.CO,
		Supply: p.Supply,
		DMin:   p.DMin,
	}}
}

// NOR3Bench adapts the transistor-level 3-input NOR testbench.
type NOR3Bench struct {
	B *nor.NOR3Bench
}

// Gate implements Bench.
func (b *NOR3Bench) Gate() Gate { return NOR3 }

// Params implements Bench.
func (b *NOR3Bench) Params() nor.Params { return b.B.P }

// SolverStats exposes the underlying bench's cumulative MNA solver
// counters for traffic reporting.
func (b *NOR3Bench) SolverStats() spice.SolverStats { return b.B.SolverStats() }

// Measure implements Bench. The pair characteristic probes pins A and B
// with pin C parked far away (rising far later in the falling
// experiments, falling far earlier in the rising ones, so the measured
// output transition is a pure A/B event); the per-pin arcs add the two
// C-caused SIS delays the projection cannot see. Rising experiments use
// the paper's worst-case internal fill V = GND.
func (b *NOR3Bench) Measure() (Measurement, error) {
	var m Measurement
	far := nor.SISFar
	type probe struct {
		dst    *float64
		dB, dC float64
		rise   bool
	}
	probes := []probe{
		{&m.Pair.FallMinusInf, -far, farPin, false},
		{&m.Pair.FallZero, 0, farPin, false},
		{&m.Pair.FallPlusInf, far, farPin, false},
		{&m.Pair.RiseMinusInf, -far, -farPin, true},
		{&m.Pair.RiseZero, 0, -farPin, true},
		{&m.Pair.RisePlusInf, far, -farPin, true},
	}
	for _, p := range probes {
		var err error
		if p.rise {
			*p.dst, err = b.B.RisingDelay3(p.dB, p.dC, 0)
		} else {
			*p.dst, err = b.B.FallingDelay3(p.dB, p.dC)
		}
		if err != nil {
			return Measurement{}, fmt.Errorf("gate nor3: pair characteristic: %w", err)
		}
	}
	// Pins 0 and 1 reuse the pair mapping; pin 2 gets dedicated SIS
	// probes (C switching isolated: first for falls, last for rises).
	arcs := NOR2Arcs(m.Pair)
	cFall, err := b.B.FallingDelay3(0, -far)
	if err != nil {
		return Measurement{}, fmt.Errorf("gate nor3: pin C fall arc: %w", err)
	}
	cRise, err := b.B.RisingDelay3(-far, far, 0)
	if err != nil {
		return Measurement{}, fmt.Errorf("gate nor3: pin C rise arc: %w", err)
	}
	m.Arcs = append(arcs, inertial.PinArcs{Fall: cFall, Rise: cRise})
	return m, nil
}

// Golden implements Bench. The bench starts settled in state (0,0,0):
// output and both internal stack nodes high.
func (b *NOR3Bench) Golden(inputs []trace.Trace, until float64) (trace.Trace, error) {
	if len(inputs) != 3 {
		return trace.Trace{}, fmt.Errorf("gate nor3: want 3 inputs, got %d", len(inputs))
	}
	sigs, bps, err := InputSignals(b.B.P, inputs)
	if err != nil {
		return trace.Trace{}, err
	}
	supply := b.B.P.Supply
	vdd := supply.VDD
	o, err := b.B.Run(sigs[0], sigs[1], sigs[2], until, vdd, vdd, vdd, bps)
	if err != nil {
		return trace.Trace{}, fmt.Errorf("gate nor3: golden transient: %w", err)
	}
	return trace.Digitize(o, supply.Vth), nil
}

// NOR3Model applies the generalized switch-level hybrid channel of the
// 3-input NOR.
type NOR3Model struct {
	P hybrid.NOR3Params
}

// Apply implements Model. Internal nodes isolated by the initial input
// state are filled with the paper's worst case GND (irrelevant for
// all-low starts, where the pMOS stack drives every node).
func (m NOR3Model) Apply(in []trace.Trace, until float64) (trace.Trace, error) {
	return hybrid.ApplyGate(m.P.Gate(), in, until, 0)
}

// String implements Model.
func (m NOR3Model) String() string { return m.P.String() }
