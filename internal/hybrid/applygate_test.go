package hybrid

import (
	"math"
	"testing"

	"hybriddelay/internal/trace"
)

func mkTrace(initial bool, times ...float64) trace.Trace {
	var ev []trace.Event
	v := initial
	for _, tm := range times {
		v = !v
		ev = append(ev, trace.Event{Time: tm, Value: v})
	}
	return trace.New(initial, ev)
}

// TestApplyGateMatchesApplyNOR cross-validates the offline n-input
// applier against the event-driven 2-input channel on the NOR2
// SwitchGate: same parameters, same stimuli, the output transitions must
// agree to sub-femtosecond accuracy (the two paths share the model but
// use the 2x2 closed form vs the n-dimensional eigendecomposition).
func TestApplyGateMatchesApplyNOR(t *testing.T) {
	p := TableI()
	g := NOR2SwitchGate(p)
	until := 4e-9

	cases := []struct {
		name string
		a, b trace.Trace
	}{
		{"sis-a", mkTrace(false, 500e-12, 1500e-12), trace.Trace{}},
		{"sis-b", trace.Trace{}, mkTrace(false, 600e-12, 1800e-12)},
		{"mis-close", mkTrace(false, 500e-12, 1500e-12), mkTrace(false, 520e-12, 1540e-12)},
		{"staggered", mkTrace(false, 400e-12, 900e-12, 1600e-12, 2400e-12), mkTrace(false, 700e-12, 2000e-12)},
	}
	for _, c := range cases {
		ref, err := ApplyNOR(p, c.a, c.b, until, p.Supply.VDD)
		if err != nil {
			t.Fatalf("%s: ApplyNOR: %v", c.name, err)
		}
		got, err := ApplyGate(g, []trace.Trace{c.a, c.b}, until, p.Supply.VDD)
		if err != nil {
			t.Fatalf("%s: ApplyGate: %v", c.name, err)
		}
		if got.Initial != ref.Initial {
			t.Fatalf("%s: initial %v, want %v", c.name, got.Initial, ref.Initial)
		}
		if got.NumEvents() != ref.NumEvents() {
			t.Fatalf("%s: %d events, want %d (%+v vs %+v)",
				c.name, got.NumEvents(), ref.NumEvents(), got.Events, ref.Events)
		}
		for i := range got.Events {
			if got.Events[i].Value != ref.Events[i].Value {
				t.Errorf("%s: event %d direction mismatch", c.name, i)
			}
			if d := math.Abs(got.Events[i].Time - ref.Events[i].Time); d > 1e-16 {
				t.Errorf("%s: event %d at %g, want %g (|d| = %g)",
					c.name, i, got.Events[i].Time, ref.Events[i].Time, d)
			}
		}
	}
}

// TestApplyGateNOR3 runs the 3-input gate through the offline applier
// and checks basic behaviour: an output pulse appears only in the
// all-low input window and the trace is well-formed.
func TestApplyGateNOR3(t *testing.T) {
	p3 := NOR3FromNOR2(TableI())
	g := p3.Gate()
	// All three inputs pulse low-high-low, staggered; the output can
	// only rise once every input is low again.
	a := mkTrace(false, 400e-12, 900e-12)
	b := mkTrace(false, 500e-12, 1100e-12)
	c := mkTrace(false, 600e-12, 1300e-12)
	out, err := ApplyGate(g, []trace.Trace{a, b, c}, 4e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	if !out.Initial {
		t.Error("NOR3 of all-low inputs must start high")
	}
	if !out.Final() {
		t.Error("NOR3 must settle high after all inputs return low")
	}
	// The falling edge trails the first rising input; the final rising
	// edge trails the last falling input.
	if out.NumEvents() < 2 {
		t.Fatalf("expected fall and rise, got %+v", out.Events)
	}
	if f := out.Events[0]; f.Value || f.Time <= 400e-12 {
		t.Errorf("first event %+v, want a fall after 400 ps", f)
	}
	if r := out.Events[len(out.Events)-1]; !r.Value || r.Time <= 1300e-12 {
		t.Errorf("last event %+v, want a rise after 1300 ps", r)
	}
}

// TestApplyGateValidation: arity and time-domain errors are rejected.
func TestApplyGateValidation(t *testing.T) {
	g := NOR2SwitchGate(TableI())
	if _, err := ApplyGate(g, []trace.Trace{{}}, 1e-9, 0); err == nil {
		t.Error("wrong input count accepted")
	}
	bad := trace.New(false, []trace.Event{{Time: -1e-12, Value: true}})
	if _, err := ApplyGate(g, []trace.Trace{bad, {}}, 1e-9, 0); err == nil {
		t.Error("negative event time accepted")
	}
}

// TestAppliersRejectInvalidEventTimes: every applier refuses a NaN,
// infinite or negative input event time with an error, rather than
// dropping the events around it.
func TestAppliersRejectInvalidEventTimes(t *testing.T) {
	p := TableI()
	appliers := []struct {
		name  string
		apply func(a trace.Trace) (trace.Trace, error)
	}{
		{"ApplyNOR", func(a trace.Trace) (trace.Trace, error) {
			return ApplyNOR(p, a, trace.Trace{}, 1e-9, 0)
		}},
		{"ApplyNAND", func(a trace.Trace) (trace.Trace, error) {
			return ApplyNAND(NANDFromDual(p), a, trace.Trace{}, 1e-9, 0)
		}},
		{"ApplyGate", func(a trace.Trace) (trace.Trace, error) {
			return ApplyGate(NOR3FromNOR2(p).Gate(), []trace.Trace{a, {}, {}}, 1e-9, 0)
		}},
	}
	for _, ap := range appliers {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-12} {
			// A rises at 10 ps; the invalid event would be its fall.
			a := trace.Trace{Events: []trace.Event{{Time: 10e-12, Value: true}, {Time: bad, Value: false}}}
			if out, err := ap.apply(a); err == nil {
				t.Errorf("%s accepted event time %g: %+v", ap.name, bad, out)
			}
		}
	}
}
