package inertial

import (
	"fmt"
	"math"

	"hybriddelay/internal/trace"
)

// PinArcs holds the two per-pin inertial delays of one gate input: the
// delay of an output transition caused by that pin, per output direction.
type PinArcs struct {
	// Fall is the delay of a falling output caused by this pin switching.
	Fall float64
	// Rise is the delay of a rising output caused by this pin switching.
	Rise float64
}

// Arcs is an arity-generic pin-aware inertial delay model: Arcs[i] holds
// the delays of output transitions caused by input i, as in standard
// per-arc (NLDM-style) timing. This is the "inertial delay" baseline of
// the paper's Fig. 7 generalized to any multi-input gate: for widely
// separated input events it reproduces the exact SIS delays per arc,
// while (unlike the hybrid channel) it knows nothing about MIS
// interactions.
type Arcs []PinArcs

// Validate checks that every arc delay is non-negative and finite.
func (a Arcs) Validate() error {
	if len(a) == 0 {
		return fmt.Errorf("inertial: no arcs")
	}
	for i, p := range a {
		for _, d := range []float64{p.Fall, p.Rise} {
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return fmt.Errorf("inertial: invalid arc delay %g on pin %d", d, i)
			}
		}
	}
	return nil
}

// Apply transforms the input traces into the gate's output trace with
// per-arc inertial delays and pulse cancellation: the causing pin of
// each zero-time output change selects the arc, and an output transition
// scheduled not after the pending opposite transition annihilates with
// it (VHDL inertial semantics). logic is the gate's boolean function
// over len(a) inputs; passing a different number of traces is a
// programming error and panics.
func (a Arcs) Apply(logic func([]bool) bool, inputs ...trace.Trace) trace.Trace {
	if len(inputs) != len(a) {
		panic(fmt.Sprintf("inertial: %d input traces for %d arcs", len(inputs), len(a)))
	}
	state := make([]bool, len(inputs))
	for i, in := range inputs {
		state[i] = in.Initial
	}
	outVal := logic(state)
	out := trace.Trace{Initial: outVal}

	type pend struct {
		time  float64
		value bool
	}
	var pending []pend
	flush := func(t float64) {
		for len(pending) > 0 && pending[0].time <= t {
			out.Events = append(out.Events, trace.Event{Time: pending[0].time, Value: pending[0].value})
			outVal = pending[0].value
			pending = pending[1:]
		}
	}
	// cur tracks the zero-time gate value to detect causal transitions.
	cur := outVal
	trace.Merge(inputs, func(pin int, e trace.Event) {
		flush(e.Time)
		state[pin] = e.Value
		v := logic(state)
		if v == cur {
			return
		}
		cur = v
		d := a[pin].Rise
		if !v {
			d = a[pin].Fall
		}
		// VHDL inertial semantics: the new transaction replaces any
		// pending one; a transaction restoring the committed value means
		// the pulse was too short to transmit.
		pending = pending[:0]
		if v == outVal {
			return
		}
		pending = append(pending, pend{e.Time + d, v})
	})
	flush(math.Inf(1))
	return out
}
