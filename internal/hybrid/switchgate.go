package hybrid

import (
	"fmt"
	"math"
	"slices"

	"hybriddelay/internal/la"
	"hybriddelay/internal/ode"
	"hybriddelay/internal/waveform"
)

// This file generalizes the paper's construction from the 2-input NOR to
// arbitrary switch-level RC gate topologies with any number of internal
// nodes — the "multi-input gate" premise of the paper's title and the
// generalization its conclusion calls for. A SwitchGate is a resistive
// network whose branches are gated by the logical input values; each
// input state selects a linear RC system C V' = -G V + u, solved in
// closed form by ode.LinearN, with the state carried continuously across
// input-induced mode switches exactly as in the 2x2 model.

// Rail identifies the fixed-potential terminals of a switch branch.
type Rail int

// Branch endpoints can be internal nodes (>= 0) or one of the rails.
const (
	RailVDD Rail = -1 // supply rail
	RailGND Rail = -2 // ground rail
)

// SwitchBranch is one transistor abstracted as an ideal switch in series
// with its on-resistance.
type SwitchBranch struct {
	// From and To are node indices (>= 0) or rails (RailVDD/RailGND cast
	// to int).
	From, To int
	R        float64 // on-resistance [Ohm]
	// Input is the gate input (0-based) controlling the switch.
	Input int
	// OnWhenHigh is true for an nMOS-like switch (conducts when the
	// input is logically 1) and false for a pMOS-like one.
	OnWhenHigh bool
}

// SwitchGate is a generic switch-level RC gate model.
type SwitchGate struct {
	Name      string
	NumInputs int
	// Caps lists the node capacitances; node len(Caps)-1 by convention
	// may be anything, the output is identified by OutNode.
	Caps     []float64
	Branches []SwitchBranch
	OutNode  int
	// Logic is the gate's boolean function, used to determine the
	// expected output direction after a mode switch.
	Logic func(inputs []bool) bool

	Supply waveform.Supply
	DMin   float64 // pure delay [s]
}

// Validate checks structural plausibility.
func (g SwitchGate) Validate() error {
	if g.NumInputs < 1 {
		return fmt.Errorf("switchgate %s: need at least one input", g.Name)
	}
	if len(g.Caps) == 0 {
		return fmt.Errorf("switchgate %s: need at least one node", g.Name)
	}
	for i, c := range g.Caps {
		if c <= 0 {
			return fmt.Errorf("switchgate %s: non-positive capacitance at node %d", g.Name, i)
		}
	}
	if g.OutNode < 0 || g.OutNode >= len(g.Caps) {
		return fmt.Errorf("switchgate %s: output node %d out of range", g.Name, g.OutNode)
	}
	if g.Logic == nil {
		return fmt.Errorf("switchgate %s: missing logic function", g.Name)
	}
	if !g.Supply.Valid() {
		return fmt.Errorf("switchgate %s: invalid supply", g.Name)
	}
	if g.DMin < 0 {
		return fmt.Errorf("switchgate %s: negative pure delay", g.Name)
	}
	for bi, b := range g.Branches {
		if b.R <= 0 {
			return fmt.Errorf("switchgate %s: branch %d has non-positive resistance", g.Name, bi)
		}
		for _, end := range []int{b.From, b.To} {
			if end >= len(g.Caps) || (end < 0 && end != int(RailVDD) && end != int(RailGND)) {
				return fmt.Errorf("switchgate %s: branch %d endpoint %d invalid", g.Name, bi, end)
			}
		}
		if b.Input < 0 || b.Input >= g.NumInputs {
			return fmt.Errorf("switchgate %s: branch %d input %d out of range", g.Name, bi, b.Input)
		}
	}
	return nil
}

// System assembles the RC system of the input state: conducting branches
// stamp their conductance; branches to VDD also inject current.
func (g SwitchGate) System(inputs []bool) (ode.LinearN, error) {
	if len(inputs) != g.NumInputs {
		return ode.LinearN{}, fmt.Errorf("switchgate %s: want %d inputs, got %d", g.Name, g.NumInputs, len(inputs))
	}
	n := len(g.Caps)
	cond := la.NewMatrix(n, n)
	u := make([]float64, n)
	for _, b := range g.Branches {
		if inputs[b.Input] != b.OnWhenHigh {
			continue // switch open
		}
		gc := 1 / b.R
		stamp := func(i, j int) {
			// i internal node; j internal node or rail.
			cond.Add(i, i, gc)
			switch {
			case j >= 0:
				cond.Add(i, j, -gc)
			case j == int(RailVDD):
				u[i] += float64(gc * g.Supply.VDD)
			} // GND contributes nothing to u
		}
		if b.From >= 0 {
			stamp(b.From, b.To)
		}
		if b.To >= 0 {
			stamp(b.To, b.From)
		}
	}
	return ode.LinearN{C: append([]float64(nil), g.Caps...), G: cond, U: u}, nil
}

// PhaseN is one leg of an input schedule for the generic gate.
type PhaseN struct {
	Start  float64
	Inputs []bool
}

// NewTrajectory solves the schedule starting from node voltages v0 at
// the first phase's start.
func (g SwitchGate) NewTrajectory(v0 []float64, phases []PhaseN) (*Trajectory, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("switchgate %s: empty schedule", g.Name)
	}
	if len(v0) != len(g.Caps) {
		return nil, fmt.Errorf("switchgate %s: initial state has %d entries, want %d", g.Name, len(v0), len(g.Caps))
	}
	tr := &Trajectory{segs: make([]segment, 0, len(phases)), out: g.OutNode}
	// An input state's system is prepared the first time a phase enters
	// it; later phases in that state only solve from their own state.
	type preparedState struct {
		inputs []bool
		sys    *ode.PreparedN
	}
	var prepared []preparedState
	state := append([]float64(nil), v0...)
	for i, ph := range phases {
		if i > 0 && ph.Start < phases[i-1].Start {
			return nil, fmt.Errorf("switchgate %s: phases not sorted", g.Name)
		}
		k := slices.IndexFunc(prepared, func(p preparedState) bool { return slices.Equal(p.inputs, ph.Inputs) })
		if k < 0 {
			sys, err := g.System(ph.Inputs)
			if err != nil {
				return nil, err
			}
			p, err := sys.Prepare()
			if err != nil {
				return nil, err
			}
			k = len(prepared)
			prepared = append(prepared, preparedState{ph.Inputs, p})
		}
		sol, err := prepared[k].sys.Solve(state)
		if err != nil {
			return nil, err
		}
		tr.segs = append(tr.segs, segment{start: ph.Start, solN: sol})
		if i+1 < len(phases) {
			state = sol.At(phases[i+1].Start - ph.Start)
		}
	}
	return tr, nil
}

// SteadyState returns the settled node voltages of an input state, with
// isolated (neutral) nodes held at the provided fill value.
func (g SwitchGate) SteadyState(inputs []bool, isolatedFill float64) ([]float64, error) {
	sys, err := g.System(inputs)
	if err != nil {
		return nil, err
	}
	// Start every node at the fill value and relax for a long time: the
	// driven modes settle, neutral ones keep the fill.
	v0 := make([]float64, len(g.Caps))
	for i := range v0 {
		v0[i] = isolatedFill
	}
	sol, err := sys.Solve(v0)
	if err != nil {
		return nil, err
	}
	tau := sol.SlowestTimeConstant()
	if math.IsInf(tau, 1) {
		return v0, nil
	}
	return sol.At(80 * tau), nil
}

// GateDelay computes the input-to-output delay of a transition schedule:
// the gate starts settled in the first phase's input state (isolated
// nodes at fill0), walks the schedule, and the delay is the first output
// threshold crossing toward the final state's logic value, measured from
// measureFrom, plus the pure delay.
func (g SwitchGate) GateDelay(phases []PhaseN, fill0, measureFrom float64) (float64, error) {
	if len(phases) < 2 {
		return 0, fmt.Errorf("switchgate %s: need at least two phases", g.Name)
	}
	v0, err := g.SteadyState(phases[0].Inputs, fill0)
	if err != nil {
		return 0, err
	}
	tr, err := g.NewTrajectory(v0, phases)
	if err != nil {
		return 0, err
	}
	startVal := g.Logic(phases[0].Inputs)
	finalVal := g.Logic(phases[len(phases)-1].Inputs)
	if startVal == finalVal {
		return 0, fmt.Errorf("switchgate %s: schedule does not toggle the output", g.Name)
	}
	tO, ok := tr.FirstOutputCrossing(g.Supply.Vth, finalVal, phases[0].Start)
	if !ok {
		return 0, fmt.Errorf("switchgate %s: output never crossed", g.Name)
	}
	return tO - measureFrom + g.DMin, nil
}
