package hybrid

import (
	"fmt"
	"math"

	"hybriddelay/internal/trace"
)

// ApplyGate runs n digital input traces offline through the generalized
// switch-level hybrid channel of a SwitchGate and returns the output
// trace — the n-input counterpart of ApplyNOR used by the gate-generic
// accuracy pipeline.
//
// Semantics mirror the 2-input Channel: every input event switches the
// RC mode a pure delay DMin later, the continuous node state is carried
// across mode switches, and the output toggles at each V_th crossing of
// the resulting piecewise trajectory. Because the whole input schedule
// is known up front, the trajectory is solved once and the alternating
// crossings are read off it directly. isolatedFill fills internal nodes
// left floating by the initial input state (the worst-case history value
// of the paper's V_N discussion).
func ApplyGate(g SwitchGate, inputs []trace.Trace, until float64, isolatedFill float64) (trace.Trace, error) {
	if len(inputs) != g.NumInputs {
		return trace.Trace{}, fmt.Errorf("hybrid: gate %s wants %d inputs, got %d", g.Name, g.NumInputs, len(inputs))
	}
	state := make([]bool, g.NumInputs)
	for i, in := range inputs {
		state[i] = in.Initial
		for _, e := range in.Events {
			if !(e.Time >= 0) || math.IsInf(e.Time, 1) { // NaN, ±Inf or before t=0
				return trace.Trace{}, fmt.Errorf("hybrid: gate %s: input %d: invalid event time %g", g.Name, i, e.Time)
			}
		}
	}

	clone := func(s []bool) []bool { return append([]bool(nil), s...) }
	phases := []PhaseN{{Start: 0, Inputs: clone(state)}}
	trace.Merge(inputs, func(pin int, e trace.Event) {
		state[pin] = e.Value
		phases = append(phases, PhaseN{Start: e.Time + g.DMin, Inputs: clone(state)})
	})

	v0, err := g.SteadyState(phases[0].Inputs, isolatedFill)
	if err != nil {
		return trace.Trace{}, err
	}
	tr, err := g.NewTrajectory(v0, phases)
	if err != nil {
		return trace.Trace{}, err
	}
	out := trace.Trace{Initial: v0[g.OutNode] > g.Supply.Vth}
	cur := out.Initial
	after := 0.0
	for {
		t, ok := tr.FirstOutputCrossing(g.Supply.Vth, !cur, after)
		if !ok || t > until {
			break
		}
		cur = !cur
		out.Events = append(out.Events, trace.Event{Time: t, Value: cur})
		after = t
	}
	return out, nil
}
