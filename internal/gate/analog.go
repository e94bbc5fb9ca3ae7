package gate

import (
	"fmt"
	"math"

	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// Testbench is the analog core every transistor-level golden bench runs
// on: one circuit holding the DC supply, one input voltage source per
// primary input and whatever gate subcircuits are stamped between them,
// plus one persistent MNA solver. The single-gate bench (Analog) and
// the netlist composer both build on it, so the node order and the
// transient options are fixed in one place.
//
// Nodes are created as supply, then inputs, then whatever the stamp
// callback adds; devices as the supply source, the input sources and
// the stamped devices. Branch unknowns follow all nodes, so a gate
// stamped alone yields the same MNA system however it is composed.
//
// A Testbench is not safe for concurrent use: Transient swaps the input
// signals in place and the devices integrate charge state across
// timesteps. Build one per goroutine.
type Testbench struct {
	p       nor.Params
	circuit *spice.Circuit
	inputs  []spice.NodeID
	srcs    []*spice.VSource
	solver  *spice.Solver
}

// NewTestbench builds a testbench over the named primary inputs, each
// driven by a constant-low placeholder source until Transient
// substitutes the run's stimuli. stamp adds the devices between the
// supply node and the input nodes. The solver's symbolic cache is
// scoped to scope (see spice.Solver.SetSymbolicScope).
func NewTestbench(p nor.Params, inputs []string, scope string, stamp func(c *spice.Circuit, vdd spice.NodeID, in []spice.NodeID) error) (*Testbench, error) {
	c := spice.NewCircuit()
	vdd := c.Node("vdd")
	tb := &Testbench{p: p, circuit: c}
	for _, name := range inputs {
		tb.inputs = append(tb.inputs, c.Node(name))
	}
	c.AddDCVSource("Vdd", vdd, spice.Ground, p.Supply.VDD)
	for i, name := range inputs {
		tb.srcs = append(tb.srcs, c.AddVSource("V."+name, tb.inputs[i], spice.Ground, waveform.Constant(0)))
	}
	if err := stamp(c, vdd, tb.inputs); err != nil {
		return nil, err
	}
	sv, err := spice.NewSolver(c)
	if err != nil {
		return nil, err
	}
	sv.SetSymbolicScope(scope)
	tb.solver = sv
	return tb, nil
}

// Params returns the testbench parameters.
func (tb *Testbench) Params() nor.Params { return tb.p }

// Circuit exposes the flattened MNA circuit (diagnostics and tests).
func (tb *Testbench) Circuit() *spice.Circuit { return tb.circuit }

// Inputs returns the input nodes in input order.
func (tb *Testbench) Inputs() []spice.NodeID { return append([]spice.NodeID(nil), tb.inputs...) }

// SolverStats returns the persistent solver's cumulative counters over
// every transient this testbench has run.
func (tb *Testbench) SolverStats() spice.SolverStats { return tb.solver.Stats() }

// Transient drives the inputs with sigs over [0, until], starting from
// the given node voltages (inputs and the supply are held by their
// sources), and records every accepted sample of the given nodes.
// Record selection only affects capture: the computed samples are the
// same whichever nodes are kept.
func (tb *Testbench) Transient(sigs []waveform.Signal, bps []float64, until float64, init map[spice.NodeID]float64, record []spice.NodeID) (*spice.TransientResult, error) {
	opt, err := tb.options(sigs, bps, until, init, record)
	if err != nil {
		return nil, err
	}
	return tb.solver.Transient(opt)
}

// Digitize runs the transient of Transient and digitizes each recorded
// node at V_th while it runs, one trace per node in record order. It
// keeps the crossings, not the samples, and equals digitizing the
// waveforms Transient records, bit for bit.
func (tb *Testbench) Digitize(sigs []waveform.Signal, bps []float64, until float64, init map[spice.NodeID]float64, record []spice.NodeID) ([]trace.Trace, error) {
	opt, err := tb.options(sigs, bps, until, init, record)
	if err != nil {
		return nil, err
	}
	digs := make([]trace.Digitizer, len(record))
	for i := range digs {
		digs[i] = trace.NewDigitizer(tb.p.Supply.Vth)
	}
	err = tb.solver.Run(opt, func(t float64, v []float64) error {
		for i := range digs {
			if err := digs[i].Add(t, v[i]); err != nil {
				return fmt.Errorf("node %q: %w", tb.circuit.NodeName(record[i]), err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]trace.Trace, len(digs))
	for i := range digs {
		if out[i], err = digs[i].Trace(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// options substitutes the run's input signals and returns the transient
// options every run of the testbench shares.
func (tb *Testbench) options(sigs []waveform.Signal, bps []float64, until float64, init map[spice.NodeID]float64, record []spice.NodeID) (spice.TransientOptions, error) {
	if len(sigs) != len(tb.srcs) {
		return spice.TransientOptions{}, fmt.Errorf("testbench: %d inputs, got %d signals", len(tb.srcs), len(sigs))
	}
	for i, src := range tb.srcs {
		src.Signal = sigs[i]
	}
	return spice.TransientOptions{
		TStart:            0,
		TStop:             until,
		MaxStep:           tb.p.MaxStep,
		LTETol:            tb.p.LTETol,
		Method:            tb.p.Method,
		Solver:            tb.p.Solver,
		SparsePivotRel:    tb.p.SparsePivotRel,
		Breakpoints:       bps,
		InitialConditions: init,
		Record:            record,
	}, nil
}

// analogGate is the per-gate data of the analog bench: everything a
// gate of this package adds to the shared probe runner.
type analogGate interface {
	Gate
	// pairOffsets places the inputs of the pin-(0,1) probe at input
	// separation delta; any further pins are parked where they cannot
	// touch the measured output transition.
	pairOffsets(delta float64, rising bool) []float64
	// tail is how long a probe runs past its last input edge.
	tail(rising bool) float64
	// arcs maps the measured pair characteristic onto per-pin arcs,
	// running any extra probes the mapping needs on b.
	arcs(b *Analog, pair hybrid.Characteristic) (inertial.Arcs, error)
}

// Analog is the transistor-level golden bench of one gate: the gate
// stamped once, with all inputs low, into a Testbench. It runs the
// random golden traces and the characteristic-delay probes.
type Analog struct {
	*Testbench
	g   analogGate
	sub Subcircuit
}

// NewAnalog builds the analog bench of one of this package's gates.
// Its inputs are named a, b, c, ..., its output o.
func NewAnalog(g Gate, p nor.Params) (*Analog, error) {
	ag, ok := g.(analogGate)
	if !ok {
		return nil, fmt.Errorf("gate %s: no analog bench", g.Name())
	}
	b := &Analog{g: ag}
	names := make([]string, g.Arity())
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	tb, err := NewTestbench(p, names, nor.SymbolicScope(g.Name(), p), func(c *spice.Circuit, vdd spice.NodeID, in []spice.NodeID) error {
		var err error
		b.sub, err = g.Stamp(c, "", "o", p, vdd, in, make([]bool, len(in)))
		return err
	})
	if err != nil {
		return nil, err
	}
	b.Testbench = tb
	return b, nil
}

// newBench is the NewBench of every gate in this package.
func newBench(g Gate, p nor.Params) (Bench, error) {
	b, err := NewAnalog(g, p)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Gate implements Bench.
func (b *Analog) Gate() Gate { return b.g }

// Subcircuit reports the stamped gate's nodes and their settled
// all-low start voltages.
func (b *Analog) Subcircuit() Subcircuit { return b.sub }

// Golden implements Bench: the analog transient over the input traces,
// started from the settled all-low state of the stamp, digitized at
// V_th while it runs.
func (b *Analog) Golden(inputs []trace.Trace, until float64) (trace.Trace, error) {
	if len(inputs) != b.g.Arity() {
		return trace.Trace{}, fmt.Errorf("gate %s: want %d inputs, got %d", b.g.Name(), b.g.Arity(), len(inputs))
	}
	sigs, bps, err := InputSignals(b.p, inputs)
	if err != nil {
		return trace.Trace{}, err
	}
	out, err := b.Digitize(sigs, bps, until, b.sub.Initial, []spice.NodeID{b.sub.Out})
	if err != nil {
		return trace.Trace{}, fmt.Errorf("gate %s: golden transient: %w", b.g.Name(), err)
	}
	return out[0], nil
}

// Measure implements Bench: the six characteristic Charlie delays of
// the pin-(0,1) pair probes, then the gate's per-pin arcs. The falling
// delays come from rising inputs, the rising ones from falling inputs,
// each from the probe's characteristic internal start (Pair).
func (b *Analog) Measure() (Measurement, error) {
	var m Measurement
	for _, pr := range []struct {
		dst    *float64
		delta  float64
		rising bool
	}{
		{&m.Pair.FallMinusInf, -nor.SISFar, true},
		{&m.Pair.FallZero, 0, true},
		{&m.Pair.FallPlusInf, nor.SISFar, true},
		{&m.Pair.RiseMinusInf, -nor.SISFar, false},
		{&m.Pair.RiseZero, 0, false},
		{&m.Pair.RisePlusInf, nor.SISFar, false},
	} {
		var err error
		if *pr.dst, err = b.Delay(b.Pair(pr.delta, pr.rising)); err != nil {
			return Measurement{}, fmt.Errorf("gate %s: pair characteristic: %w", b.g.Name(), err)
		}
	}
	var err error
	m.Arcs, err = b.g.arcs(b, m.Pair)
	return m, err
}

// Probe is one characteristic-delay experiment: every input switches
// once, all in the same direction, out of the settled state of the
// opposite input level.
type Probe struct {
	// Offsets places each input's threshold crossing relative to the
	// others; the earliest lands 20 input rise times plus 60 ps into
	// the run, so the circuit has settled before it.
	Offsets []float64
	// Rising is the direction every input switches in.
	Rising bool
	// VInt is the start voltage of every internal node.
	VInt float64
}

// Pair returns the characteristic pin-(0,1) probe at input separation
// delta = t(pin 1) - t(pin 0): the internal nodes start at VDD under
// rising inputs and at the paper's worst case GND under falling ones.
func (b *Analog) Pair(delta float64, rising bool) Probe {
	pr := Probe{Offsets: b.g.pairOffsets(delta, rising), Rising: rising}
	if rising {
		pr.VInt = b.p.Supply.VDD
	}
	return pr
}

// ProbeWaves are the recorded waveforms of one probe.
type ProbeWaves struct {
	In       []*waveform.Waveform // per input, in input order
	Internal []*waveform.Waveform // per internal node, in stamp order
	Out      *waveform.Waveform
}

// Delay runs the probe and returns the gate delay: from the input edge
// that switches the output to the output's V_th crossing. When a single
// input edge switches the output (a NOR's fall, a NAND's rise), that is
// the first edge, and the crossing is searched from one input rise time
// before it; otherwise it is the last edge, searched from the start.
func (b *Analog) Delay(pr Probe) (float64, error) {
	run, err := b.probe(pr, []spice.NodeID{b.sub.Out})
	if err != nil {
		return 0, err
	}
	o, err := run.res.Waveform(b.sub.Out)
	if err != nil {
		return 0, err
	}
	one := levels(len(pr.Offsets), !pr.Rising)
	one[0] = pr.Rising
	ref, from := run.last, 0.0
	if b.g.Logic(one) != run.outHigh {
		ref, from = run.first, run.first-b.p.InputRise
	}
	tO, ok := o.FirstCrossingAfter(from, b.p.Supply.Vth, !run.outHigh)
	if !ok {
		return 0, fmt.Errorf("gate %s: output never switched (offsets %g)", b.g.Name(), pr.Offsets)
	}
	return tO - ref, nil
}

// Waveforms runs the probe and returns every node's waveform.
func (b *Analog) Waveforms(pr Probe) (ProbeWaves, error) {
	var w ProbeWaves
	record := append(append(b.Inputs(), b.sub.Internal...), b.sub.Out)
	run, err := b.probe(pr, record)
	if err != nil {
		return w, err
	}
	ws := make([]*waveform.Waveform, len(record))
	for i, n := range record {
		if ws[i], err = run.res.Waveform(n); err != nil {
			return w, err
		}
	}
	nIn := len(b.inputs)
	w.In, w.Internal, w.Out = ws[:nIn], ws[nIn:len(ws)-1], ws[len(ws)-1]
	return w, nil
}

// probeRun is one probe transient and what Delay reads off it.
type probeRun struct {
	res         *spice.TransientResult
	first, last float64 // earliest and latest input edge
	outHigh     bool    // output start level
}

// levels returns n copies of v.
func levels(n int, v bool) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// probe runs one probe transient. Edge i lands at (lead + Offsets[i]) -
// t0 with t0 the earliest offset (or 0), each breakpoint half an input
// rise time before its edge. The products are rounded explicitly so no
// platform fuses them into a multiply-add.
func (b *Analog) probe(pr Probe, record []spice.NodeID) (probeRun, error) {
	if len(pr.Offsets) != b.g.Arity() {
		return probeRun{}, fmt.Errorf("gate %s: probe wants %d offsets, got %d", b.g.Name(), b.g.Arity(), len(pr.Offsets))
	}
	ir, vdd := b.p.InputRise, b.p.Supply.VDD
	lead := float64(20*ir) + 60e-12
	t0 := 0.0
	for _, off := range pr.Offsets {
		t0 = math.Min(t0, off)
	}
	v0, v1 := 0.0, vdd
	if !pr.Rising {
		v0, v1 = vdd, 0
	}
	run := probeRun{first: math.Inf(1), last: math.Inf(-1), outHigh: b.g.Logic(levels(len(pr.Offsets), !pr.Rising))}
	sigs := make([]waveform.Signal, len(pr.Offsets))
	bps := make([]float64, len(pr.Offsets))
	for i, off := range pr.Offsets {
		t := lead + off - t0
		sigs[i] = waveform.RaisedCosineEdge(t, ir, v0, v1)
		bps[i] = t - float64(ir/2)
		run.first, run.last = math.Min(run.first, t), math.Max(run.last, t)
	}
	init := map[spice.NodeID]float64{b.sub.Out: 0}
	if run.outHigh {
		init[b.sub.Out] = vdd
	}
	for _, n := range b.sub.Internal {
		init[n] = pr.VInt
	}
	var err error
	if run.res, err = b.Transient(sigs, bps, run.last+b.g.tail(pr.Rising), init, record); err != nil {
		return probeRun{}, fmt.Errorf("gate %s: probe transient: %w", b.g.Name(), err)
	}
	return run, nil
}
