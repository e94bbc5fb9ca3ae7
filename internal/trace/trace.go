// Package trace represents digital signal traces (sequences of boolean
// transitions) and the deviation-area metric the paper uses to score
// delay models against the analog golden reference (§VI).
package trace

import (
	"fmt"
	"math"
	"slices"
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

// Digitizer converts an analog waveform into a digital trace by
// thresholding at a level, exactly as the Involution Tool digitizes SPICE
// traces, one sample at a time: it keeps the crossings (see
// waveform.SegmentCrossing), never the samples, so a transient can be
// digitized while it runs in memory proportional to its events.
//
// Fed the samples of a waveform in order, it yields the waveform's
// initial side of the level and its Crossings as the trace's events;
// they alternate by construction.
type Digitizer struct {
	level float64
	n     int     // samples accepted
	t, v  float64 // the last accepted sample
	tr    Trace
}

// NewDigitizer returns a digitizer thresholding at level.
func NewDigitizer(level float64) Digitizer { return Digitizer{level: level} }

// Add feeds the next sample. It rejects, with an error and without
// effect, exactly the samples waveform.NewWaveform rejects: a
// non-finite time or value, or a time that does not follow the last.
func (d *Digitizer) Add(t, v float64) error {
	if err := waveform.CheckSample(d.n, d.t, t, v); err != nil {
		return err
	}
	if d.n == 0 {
		d.tr.Initial = v > d.level
	} else if c, ok := waveform.SegmentCrossing(d.t, d.v, t, v, d.level); ok {
		d.tr.Events = append(d.tr.Events, Event{Time: c.Time, Value: c.Rising})
	}
	d.n++
	d.t, d.v = t, v
	return nil
}

// Trace returns the trace of the samples fed so far; like an empty
// waveform, no samples at all is an error.
func (d *Digitizer) Trace() (Trace, error) {
	if d.n == 0 {
		return Trace{}, fmt.Errorf("trace: no samples to digitize")
	}
	return Trace{Initial: d.tr.Initial, Events: slices.Clip(d.tr.Events)}, nil
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
	// The values at t0 come from the visit itself: the traces may be
	// unsorted, and Merge visits their events in time order either way.
	va, vb := a.Initial, b.Initial
	prev := t0
	area := 0.0
	Merge([]Trace{a, b}, func(i int, e Event) {
		switch {
		case e.Time > t0 && e.Time < t1:
			if va != vb {
				area += e.Time - prev
			}
			prev = e.Time
		case !(e.Time <= t0):
			return // at or after t1, or NaN
		}
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
