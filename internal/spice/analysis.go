package spice

import (
	"fmt"

	"hybriddelay/internal/waveform"
)

// NewtonOptions controls the nonlinear solver.
type NewtonOptions struct {
	AbsTol  float64 // absolute voltage tolerance [V]; default 1e-9
	RelTol  float64 // relative tolerance; default 1e-6
	MaxIter int     // default 100
	Damping float64 // max Newton update per iteration [V]; default 0.5
}

func (o *NewtonOptions) defaults() {
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-9
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-6
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Damping <= 0 {
		o.Damping = 0.5
	}
}

// OperatingPoint computes the DC solution at time t (signals evaluated at
// t, capacitors open). The returned slice holds the MNA unknowns: node
// voltages (ground excluded) followed by voltage-source branch currents.
//
// This is the per-call reference path: it validates the circuit and
// builds a fresh solver workspace every time. Callers that solve the
// same circuit repeatedly should hold a Solver instead.
func OperatingPoint(c *Circuit, t float64, opt NewtonOptions) ([]float64, error) {
	s, err := NewSolver(c)
	if err != nil {
		return nil, err
	}
	return s.OperatingPoint(t, opt)
}

// TransientOptions configures transient analysis.
type TransientOptions struct {
	TStart, TStop float64
	// MaxStep bounds the step size; default (TStop-TStart)/50.
	MaxStep float64
	// MinStep is the smallest step before the run aborts; default
	// MaxStep*1e-9.
	MinStep float64
	// LTETol is the local truncation error tolerance in volts used for
	// step control; default 1e-4 V.
	LTETol float64
	// Method selects the integration scheme; default Trapezoidal with a
	// backward-Euler start after every breakpoint.
	Method IntegrationMethod
	// Breakpoints are times at which the step size is reset (input
	// edges). Entries must be finite; duplicates (within the stepper's
	// arrival tolerance) and entries outside (TStart, TStop) are
	// discarded, so a repeated edge time cannot force a second step-size
	// reset or a pointless backward-Euler restart.
	Breakpoints []float64
	// InitialConditions, if non-nil, sets node voltages at TStart directly
	// (UIC); otherwise a DC operating point at TStart is computed.
	InitialConditions map[NodeID]float64
	// Record lists the nodes whose waveforms are captured; nil = all
	// nodes. Recording Ground is allowed and yields the constant 0 V
	// reference; any other node not in the circuit is rejected.
	Record []NodeID
	Newton NewtonOptions
	// Solver selects the linear-solver strategy for the Newton inner
	// loop. The zero value, DenseExact, is the bit-identical golden
	// path; SparseFast is numerically equivalent but faster on larger
	// systems. See SolverMode.
	Solver SolverMode
	// SparsePivotRel, when positive, overrides the SparseFast symbolic
	// pilot's pivot admissibility threshold (sparse.Options.PivotRel):
	// larger values trade fill reduction for static-pivot stability.
	// Zero selects the sparse package default (0.1). Ignored by
	// DenseExact. The value participates in the symbolic cache key, so
	// differently-tuned solves never share an analysis.
	SparsePivotRel float64
}

// TransientResult holds the captured node waveforms.
type TransientResult struct {
	Times []float64
	nodes map[NodeID][]float64
}

// Waveform returns the waveform recorded for node n.
func (r *TransientResult) Waveform(n NodeID) (*waveform.Waveform, error) {
	vs, ok := r.nodes[n]
	if !ok {
		return nil, fmt.Errorf("spice: node %d was not recorded", int(n))
	}
	return waveform.NewWaveform(r.Times, vs)
}

// Transient runs an adaptive-step transient analysis.
//
// This is the per-call reference path: it validates the circuit and
// builds a fresh solver workspace every time. Callers that run many
// transients on the same circuit should hold a Solver, whose results
// are bit-identical.
func Transient(c *Circuit, opt TransientOptions) (*TransientResult, error) {
	s, err := NewSolver(c)
	if err != nil {
		return nil, err
	}
	return s.Transient(opt)
}
