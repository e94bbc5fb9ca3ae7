// Package trace represents digital signal traces (sequences of boolean
// transitions) and the deviation-area metric the paper uses to score
// delay models against the analog golden reference (§VI).
package trace

import (
	"fmt"
	"math"
	"sort"

	"hybriddelay/internal/waveform"
)

// Event is one transition: the signal assumes Value at Time.
type Event struct {
	Time  float64
	Value bool
}

// Trace is a digital signal: an initial value and a sorted sequence of
// alternating transitions.
type Trace struct {
	Initial bool
	Events  []Event
}

// New builds a normalized trace from an initial value and transition
// events: events are sorted, redundant events (no value change) dropped.
func New(initial bool, events []Event) Trace {
	out := Trace{Initial: initial}
	Merge([]Trace{{Events: events}}, func(_ int, e Event) {
		if e.Value != out.Final() {
			out.Events = append(out.Events, e)
		}
	})
	return out
}

// FromTransitions builds a trace from threshold-crossing transitions
// (rising = value becomes true).
func FromTransitions(initial bool, ts []waveform.Transition) Trace {
	ev := make([]Event, len(ts))
	for i, t := range ts {
		ev[i] = Event{Time: t.Time, Value: t.Rising}
	}
	return New(initial, ev)
}

// Digitize converts an analog waveform into a digital trace by
// thresholding at vth, exactly as the Involution Tool digitizes SPICE
// traces.
func Digitize(w *waveform.Waveform, vth float64) Trace {
	initial := w.Values[0] > vth
	crossings := w.Crossings(vth)
	ts := make([]Event, len(crossings))
	for i, c := range crossings {
		ts[i] = Event{Time: c.Time, Value: c.Rising}
	}
	return New(initial, ts)
}

// Validate checks the sorted/alternating invariants. A NaN time is
// rejected: it compares false against every time, so it would hide the
// order check of the event after it.
func (t Trace) Validate() error {
	cur := t.Initial
	last := math.Inf(-1)
	for i, e := range t.Events {
		if math.IsNaN(e.Time) {
			return fmt.Errorf("trace: event %d at NaN time", i)
		}
		if e.Time < last {
			return fmt.Errorf("trace: event %d out of order (%g after %g)", i, e.Time, last)
		}
		if e.Value == cur {
			return fmt.Errorf("trace: event %d does not change the value", i)
		}
		cur = e.Value
		last = e.Time
	}
	return nil
}

// At returns the signal value at time tm (events take effect at their
// own timestamp).
func (t Trace) At(tm float64) bool {
	// Find the last event with Time <= tm.
	i := sort.Search(len(t.Events), func(i int) bool { return t.Events[i].Time > tm })
	if i == 0 {
		return t.Initial
	}
	return t.Events[i-1].Value
}

// Final returns the value after all events.
func (t Trace) Final() bool {
	if len(t.Events) == 0 {
		return t.Initial
	}
	return t.Events[len(t.Events)-1].Value
}

// NumEvents returns the number of transitions.
func (t Trace) NumEvents() int { return len(t.Events) }

// Transitions converts the events to waveform transitions.
func (t Trace) Transitions() []waveform.Transition {
	out := make([]waveform.Transition, len(t.Events))
	for i, e := range t.Events {
		out[i] = waveform.Transition{Time: e.Time, Rising: e.Value}
	}
	return out
}

// Clip restricts the trace to [t0, t1], resampling the initial value.
func (t Trace) Clip(t0, t1 float64) Trace {
	out := Trace{Initial: t.At(t0)}
	for _, e := range t.Events {
		if e.Time > t0 && e.Time <= t1 {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// Invert returns the logical complement of the trace.
func (t Trace) Invert() Trace {
	out := Trace{Initial: !t.Initial, Events: make([]Event, len(t.Events))}
	for i, e := range t.Events {
		out.Events[i] = Event{Time: e.Time, Value: !e.Value}
	}
	return out
}

// Shift returns the trace delayed by d.
func (t Trace) Shift(d float64) Trace {
	out := Trace{Initial: t.Initial, Events: make([]Event, len(t.Events))}
	for i, e := range t.Events {
		out.Events[i] = Event{Time: e.Time + d, Value: e.Value}
	}
	return out
}

// DeviationArea computes the paper's accuracy metric: the total time
// during [t0, t1] in which the two traces disagree (the absolute area
// between the two 0/1 signals).
func DeviationArea(a, b Trace, t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	va, vb := a.At(t0), b.At(t0)
	prev := t0
	area := 0.0
	Merge([]Trace{a, b}, func(i int, e Event) {
		if !(e.Time > t0 && e.Time < t1) {
			return
		}
		if va != vb {
			area += e.Time - prev
		}
		prev = e.Time
		if i == 0 {
			va = e.Value
		} else {
			vb = e.Value
		}
	})
	if va != vb {
		area += t1 - prev
	}
	return area
}

// Logic combinators (zero-delay boolean algebra on traces), used to build
// reference gate outputs and in tests.

// Combine merges n traces through a boolean function, producing the
// zero-delay output trace.
func Combine(f func([]bool) bool, inputs ...Trace) Trace {
	vals := make([]bool, len(inputs))
	for i, in := range inputs {
		vals[i] = in.Initial
	}
	out := Trace{Initial: f(vals)}
	// Apply all simultaneous events before re-evaluating: a group, timed
	// by its first event, ends at the next event of a different time.
	var t float64
	open := false
	flush := func() {
		if v := f(vals); v != out.Final() {
			out.Events = append(out.Events, Event{Time: t, Value: v})
		}
	}
	Merge(inputs, func(i int, e Event) {
		if open && e.Time != t {
			flush()
			open = false
		}
		if !open {
			t, open = e.Time, true
		}
		vals[i] = e.Value
	})
	if open {
		flush()
	}
	return out
}

// NOR2 returns the zero-delay NOR of two traces.
func NOR2(a, b Trace) Trace {
	return Combine(func(v []bool) bool { return !(v[0] || v[1]) }, a, b)
}
