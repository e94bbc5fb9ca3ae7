// Package gate is the gate-abstraction layer of the evaluation
// pipeline: it decouples the Fig. 7 accuracy machinery (internal/eval),
// the digital channels and the CLI from any particular gate topology.
//
// A Gate bundles everything the pipeline needs generically — the boolean
// function, its transistor-level stamp, characteristic Charlie-delay
// measurement, the per-pin inertial baseline and the hybrid-model
// parametrization hooks — so that a new gate is a registry entry
// (Register) rather than a new copy of the pipeline. The paper's 2-input
// NOR (the default), its structural dual NAND2 and the 3-input NOR
// extension are registered in this package. All three share one analog
// golden bench (Analog, on the Testbench core the netlist composer also
// uses), built from their stamps; each adds only its pair probe, probe
// tails and arc mapping.
package gate

import (
	"fmt"

	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/idm"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// Model names of the Fig. 7 legend — the four delay models every
// registered gate parametrizes through BuildModels and the accuracy
// pipeline scores against the golden reference (both per gate in
// internal/eval and per netlist instance in circuit-level evaluation).
const (
	ModelInertial = "inertial"
	ModelExp      = "exp-channel"
	ModelHM       = "hm"         // hybrid model with pure delay
	ModelHMNoDMin = "hm-no-dmin" // hybrid model without pure delay
)

// ModelNames lists the evaluated models in presentation order.
var ModelNames = []string{ModelInertial, ModelExp, ModelHM, ModelHMNoDMin}

// Gate describes one registered multi-input gate. Implementations are
// stateless values safe for concurrent use; per-run state lives in the
// Bench instances they construct.
type Gate interface {
	// Name is the registry key (e.g. "nor2").
	Name() string
	// Describe is a one-line human description for listings.
	Describe() string
	// Arity is the number of gate inputs.
	Arity() int
	// Logic is the gate's zero-delay boolean function over Arity inputs.
	Logic(in []bool) bool
	// NewBench builds a fresh transistor-level golden bench from the
	// shared testbench parameter set. Benches are not safe for
	// concurrent use; build one per worker.
	NewBench(p nor.Params) (Bench, error)
	// Stamp writes the gate's transistor-level subcircuit into a shared
	// circuit, so multi-gate netlists can be flattened into one MNA
	// system: the instance's devices (including its per-stage output
	// load CO) between the given input nodes and a freshly created
	// output node named outName, with internal nodes created under
	// prefix. init holds the instance's logical input values at t=0;
	// the returned Subcircuit carries the created node IDs and the
	// settled initial voltage of every created node in that input state
	// (internal nodes isolated by the input state use the paper's worst
	// case GND). The gate's analog bench (NewAnalog) is this stamp
	// alone with all-low inputs, started from the returned voltages.
	Stamp(c *spice.Circuit, prefix, outName string, p nor.Params, vdd spice.NodeID, in []spice.NodeID, init []bool) (Subcircuit, error)
	// BuildModels parametrizes the Fig. 7 model set (per-pin inertial
	// arcs, exp-channel, hybrid model with and without pure delay) from
	// a bench measurement. expDMin is the exp channel's empirical pure
	// delay (paper: 20 ps).
	BuildModels(meas Measurement, supply waveform.Supply, expDMin float64) (Models, error)
}

// Subcircuit reports what one Stamp call added to a shared circuit.
type Subcircuit struct {
	// Out is the created output node.
	Out spice.NodeID
	// Internal lists the created internal nodes in stamp order.
	Internal []spice.NodeID
	// Initial maps every created node (internal and output) to its
	// settled voltage for the instance's t=0 input state.
	Initial map[spice.NodeID]float64
}

// stampArgs validates the common Stamp preconditions.
func stampArgs(g Gate, p nor.Params, in []spice.NodeID, init []bool) error {
	if err := nor.ValidateParams("gate "+g.Name(), p); err != nil {
		return err
	}
	if len(in) != g.Arity() {
		return fmt.Errorf("gate %s: stamp wants %d input nodes, got %d", g.Name(), g.Arity(), len(in))
	}
	if len(init) != g.Arity() {
		return fmt.Errorf("gate %s: stamp wants %d initial input values, got %d", g.Name(), g.Arity(), len(init))
	}
	return nil
}

// Bench is an instantiated transistor-level golden bench of a gate. A
// Bench owns mutable simulator state and must not run two transients at
// once; the evaluation pipeline pools one instance per worker.
type Bench interface {
	// Gate returns the gate this bench instantiates.
	Gate() Gate
	// Params returns the testbench parameters the bench was built from.
	Params() nor.Params
	// Measure runs the characteristic-delay experiments: the six Charlie
	// delays of the pin-(0,1) projection plus the per-pin SIS arcs.
	Measure() (Measurement, error)
	// Golden runs the random input traces through the analog bench and
	// returns the digitized output trace. All inputs must start low (the
	// bench starts settled in the all-low input state).
	Golden(inputs []trace.Trace, until float64) (trace.Trace, error)
}

// Measurement bundles the characteristic measurements of one bench —
// everything Gate.BuildModels needs.
type Measurement struct {
	// Pair holds the gate's six characteristic Charlie delays for the
	// pin-(0,1) projection (any remaining pins held non-controlling), in
	// the gate's own falling/rising orientation.
	Pair hybrid.Characteristic
	// Arcs is the per-pin SIS baseline for the inertial model.
	Arcs inertial.Arcs
}

// Model is one parametrized delay model applied to digital input traces
// — the unit the accuracy pipeline scores against the golden trace.
type Model interface {
	// Apply runs the input traces through the model's channel.
	Apply(inputs []trace.Trace, until float64) (trace.Trace, error)
	// String renders the model's parameters.
	String() string
}

// Models bundles the parametrized delay models under comparison for one
// gate (the Fig. 7 legend).
type Models struct {
	// Gate identifies the gate the models were built for; the pipeline
	// uses its arity and boolean function.
	Gate     Gate
	Inertial inertial.Arcs // per-pin inertial baseline
	Exp      idm.Exp       // single exp channel at the gate output
	HM       Model         // hybrid model with pure delay
	HMNoDMin Model         // hybrid model without pure delay (ablation)
	Supply   waveform.Supply
}

// tailWeights is the residual weighting of the hybrid fits: the paper's
// parametrization visibly favours the SIS tails over the Delta = 0
// points where the model cannot match everything (its delta_rise is
// V_N-invariant in mode (1,1), so rise(-inf) and rise(0) coincide at
// V_N = GND; see Fig. 6): weight the four tails higher so the fit
// resolves the conflict the same way.
var tailWeights = []float64{3, 1, 3, 3, 1, 3}

// Fitted is the complete output of one operating point's measure-and-fit
// chain as plain numbers: the bench measurement and the two NOR-frame
// hybrid fits. It is what the persistent store keeps per operating
// point, so a later process rebuilds the model set with Assemble
// instead of measuring and fitting again.
type Fitted struct {
	Meas     Measurement
	HM       hybrid.Params // NOR-frame fit with pure delay
	HMNoDMin hybrid.Params // NOR-frame fit without pure delay
}

// hybridGate is the per-gate half of the shared parametrization that
// every gate of this package implements: how its pair characteristic
// maps into the NOR frame hybrid.FitCharacteristic expects, and how a
// NOR-frame fit becomes its channel applier.
type hybridGate interface {
	norFrame(c hybrid.Characteristic) hybrid.Characteristic
	wrap(p hybrid.Params) Model
}

// Fit runs the expensive half of a gate's parametrization: the two
// hybrid fits (with and without pure delay) of the measured pair
// characteristic in the NOR frame. A gate registered from outside this
// package exposes no frame; its Fitted carries the measurement alone
// and Assemble parametrizes it through the gate's own BuildModels.
func Fit(g Gate, meas Measurement, supply waveform.Supply) (Fitted, error) {
	f := Fitted{Meas: meas}
	h, ok := g.(hybridGate)
	if !ok {
		return f, nil
	}
	frame := h.norFrame(meas.Pair)
	var err error
	if f.HM, _, err = hybrid.FitCharacteristic(frame, supply, &hybrid.FitOptions{
		DMin: -1, Weights: tailWeights,
	}); err != nil {
		return f, fmt.Errorf("gate %s: hybrid fit: %w", g.Name(), err)
	}
	if f.HMNoDMin, _, err = hybrid.FitCharacteristic(frame, supply, &hybrid.FitOptions{
		DMin: 0, Weights: tailWeights,
	}); err != nil {
		return f, fmt.Errorf("gate %s: hybrid fit without dmin: %w", g.Name(), err)
	}
	return f, nil
}

// Assemble is the cheap half of a gate's parametrization: it validates
// a fitted operating point and builds the model set from it. The
// inertial arcs and the exp channel come from the measurement, the two
// fits are wrapped into the gate's channel applier. A freshly fitted
// point and one loaded from disk pass through the same checks, and
// equal points assemble into bit-identical model sets.
func Assemble(g Gate, f Fitted, supply waveform.Supply, expDMin float64) (Models, error) {
	h, ok := g.(hybridGate)
	if !ok {
		return g.BuildModels(f.Meas, supply, expDMin)
	}
	m := Models{Gate: g, Supply: supply}
	meas := f.Meas
	if len(meas.Arcs) != g.Arity() {
		return m, fmt.Errorf("gate %s: measurement has %d arcs, want %d", g.Name(), len(meas.Arcs), g.Arity())
	}
	if err := meas.Arcs.Validate(); err != nil {
		return m, fmt.Errorf("gate %s: inertial baseline: %w", g.Name(), err)
	}
	m.Inertial = meas.Arcs

	// The exp channel sits at the gate output — it cannot see which
	// input switched, so each direction uses the mean of the pin-(0,1)
	// SIS delays (exactly the deficiency the paper describes for broad
	// pulses) — with the empirical pure delay expDMin.
	riseSIS := 0.5 * (meas.Pair.RiseMinusInf + meas.Pair.RisePlusInf)
	fallSIS := 0.5 * (meas.Pair.FallMinusInf + meas.Pair.FallPlusInf)
	var err error
	if m.Exp, err = idm.ExpFromSIS(riseSIS, fallSIS, expDMin); err != nil {
		return m, fmt.Errorf("gate %s: exp channel: %w", g.Name(), err)
	}
	if err := f.HM.Validate(); err != nil {
		return m, fmt.Errorf("gate %s: hybrid fit: %w", g.Name(), err)
	}
	if err := f.HMNoDMin.Validate(); err != nil {
		return m, fmt.Errorf("gate %s: hybrid fit without dmin: %w", g.Name(), err)
	}
	m.HM = h.wrap(f.HM)
	m.HMNoDMin = h.wrap(f.HMNoDMin)
	return m, nil
}

// buildModels is the BuildModels of every gate in this package: Fit
// then Assemble.
func buildModels(g Gate, meas Measurement, supply waveform.Supply, expDMin float64) (Models, error) {
	f, err := Fit(g, meas, supply)
	if err != nil {
		return Models{}, err
	}
	return Assemble(g, f, supply, expDMin)
}

// InputSignals converts digital traces into analog bench stimuli: one
// raised-cosine edge train per input plus the transient breakpoints at
// the edge starts. All inputs must start low. It is the one conversion
// convention every golden run shares — the gate benches and the
// netlist composer drive their input sources through it. The halved
// rise time is rounded explicitly so no platform fuses the breakpoint
// into a multiply-add.
func InputSignals(p nor.Params, inputs []trace.Trace) ([]waveform.Signal, []float64, error) {
	sigs := make([]waveform.Signal, len(inputs))
	var bps []float64
	for i, in := range inputs {
		if in.Initial {
			return nil, nil, fmt.Errorf("gate: golden run requires inputs starting low")
		}
		sig, err := waveform.Edges(in.Transitions(), p.InputRise, 0, p.Supply.VDD)
		if err != nil {
			return nil, nil, fmt.Errorf("gate: input %d: %w", i, err)
		}
		sigs[i] = sig
		for _, e := range in.Events {
			bps = append(bps, e.Time-float64(p.InputRise/2))
		}
	}
	return sigs, bps, nil
}
