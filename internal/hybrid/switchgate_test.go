package hybrid

import (
	"math"
	"testing"
)

// NOR2SwitchGate expresses the paper's 2-input NOR model as a generic
// SwitchGate: node 0 is the internal node N, node 1 the output O. It is
// used to cross-validate the n-dimensional machinery against the
// specialised closed-form 2x2 implementation.
func NOR2SwitchGate(p Params) SwitchGate {
	return SwitchGate{
		Name:      "nor2",
		NumInputs: 2,
		Caps:      []float64{p.CN, p.CO},
		Branches: []SwitchBranch{
			{From: int(RailVDD), To: 0, R: p.R1, Input: 0, OnWhenHigh: false}, // T1
			{From: 0, To: 1, R: p.R2, Input: 1, OnWhenHigh: false},            // T2
			{From: 1, To: int(RailGND), R: p.R3, Input: 0, OnWhenHigh: true},  // T3
			{From: 1, To: int(RailGND), R: p.R4, Input: 1, OnWhenHigh: true},  // T4
		},
		OutNode: 1,
		Logic:   func(in []bool) bool { return !(in[0] || in[1]) },
		Supply:  p.Supply,
		DMin:    p.DMin,
	}
}

// TestNOR2SwitchGateMatchesClosedForm is the keystone cross-validation:
// the generic n-dimensional switch-level machinery must reproduce the
// specialised 2x2 implementation of the paper's NOR exactly (well below
// a femtosecond).
func TestNOR2SwitchGateMatchesClosedForm(t *testing.T) {
	p := TableI()
	g := NOR2SwitchGate(p)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, dd := range []float64{-SISFar, -40e-12, -10e-12, 0, 10e-12, 40e-12, SISFar} {
		// Falling: inputs rise; A at 0, B at dd (shift so earliest = 0).
		t0 := math.Min(0, dd)
		phases := []PhaseN{
			{Start: -1e-12 + 0*t0, Inputs: []bool{false, false}},
		}
		times := []float64{0 - t0, dd - t0}
		if times[0] <= times[1] {
			phases = append(phases,
				PhaseN{Start: times[0], Inputs: []bool{true, false}},
				PhaseN{Start: times[1], Inputs: []bool{true, true}})
		} else {
			phases = append(phases,
				PhaseN{Start: times[1], Inputs: []bool{false, true}},
				PhaseN{Start: times[0], Inputs: []bool{true, true}})
		}
		phases[0].Start = math.Min(times[0], times[1]) - 1e-12
		got, err := g.GateDelay(phases, p.Supply.VDD, 0)
		if err != nil {
			t.Fatalf("Delta=%g: %v", dd, err)
		}
		want, err := p.FallingDelay(dd)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-16 {
			t.Errorf("Delta=%g: switch-gate fall %.6g, closed form %.6g", dd, got, want)
		}
	}
	// Rising with the three V_N fills.
	for _, vn := range []float64{0, 0.4, 0.8} {
		for _, dd := range []float64{-60e-12, 0, 60e-12} {
			t0 := math.Min(0, dd)
			times := []float64{0 - t0, dd - t0}
			var phases []PhaseN
			if times[0] <= times[1] {
				phases = []PhaseN{
					{Start: math.Min(times[0], times[1]) - 1e-12, Inputs: []bool{true, true}},
					{Start: times[0], Inputs: []bool{false, true}},
					{Start: times[1], Inputs: []bool{false, false}},
				}
			} else {
				phases = []PhaseN{
					{Start: math.Min(times[0], times[1]) - 1e-12, Inputs: []bool{true, true}},
					{Start: times[1], Inputs: []bool{true, false}},
					{Start: times[0], Inputs: []bool{false, false}},
				}
			}
			last := math.Max(times[0], times[1])
			got, err := g.GateDelay(phases, vn, last)
			if err != nil {
				t.Fatalf("vn=%g Delta=%g: %v", vn, dd, err)
			}
			want, err := p.RisingDelayFrom(dd, vn)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-16 {
				t.Errorf("vn=%g Delta=%g: switch-gate rise %.6g, closed form %.6g", vn, dd, got, want)
			}
		}
	}
}

func TestSwitchGateValidation(t *testing.T) {
	p := TableI()
	good := NOR2SwitchGate(p)
	bad := good
	bad.Caps = []float64{p.CN, 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero cap accepted")
	}
	bad = good
	bad.OutNode = 5
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range output accepted")
	}
	bad = good
	bad.Logic = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing logic accepted")
	}
	bad = good
	bad.Branches = append([]SwitchBranch(nil), good.Branches...)
	bad.Branches[0].Input = 7
	if err := bad.Validate(); err == nil {
		t.Error("bad branch input accepted")
	}
	bad = good
	bad.Branches = append([]SwitchBranch(nil), good.Branches...)
	bad.Branches[0].R = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero branch resistance accepted")
	}
}

// TestSwitchGateSteadyStates: mode steady states of the NOR2 switch
// gate match the specialised model's.
func TestSwitchGateSteadyStates(t *testing.T) {
	p := TableI()
	g := NOR2SwitchGate(p)
	vdd := p.Supply.VDD
	cases := []struct {
		in   []bool
		fill float64
		want []float64
	}{
		{[]bool{false, false}, 0, []float64{vdd, vdd}},
		{[]bool{false, true}, 0, []float64{vdd, 0}},
		{[]bool{true, false}, 0, []float64{0, 0}},
		{[]bool{true, true}, 0.3, []float64{0.3, 0}}, // N isolated keeps the fill
	}
	for _, c := range cases {
		got, err := g.SteadyState(c.in, c.fill)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.want {
			if math.Abs(got[i]-c.want[i]) > 1e-6 {
				t.Errorf("inputs %v: node %d settles at %g, want %g", c.in, i, got[i], c.want[i])
			}
		}
	}
}

// TestTrajectoryNContinuity: state continuity across switches for the
// 3-node gate, whose output curve is its output node.
func TestTrajectoryNContinuity(t *testing.T) {
	p3 := NOR3FromNOR2(TableI())
	g := p3.Gate()
	phases := []PhaseN{
		{Start: 0, Inputs: []bool{false, false, false}},
		{Start: 20e-12, Inputs: []bool{true, false, false}},
		{Start: 45e-12, Inputs: []bool{true, true, false}},
		{Start: 70e-12, Inputs: []bool{true, true, true}},
	}
	v0 := []float64{0.8, 0.8, 0.8}
	tr, err := g.NewTrajectory(v0, phases)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range phases[1:] {
		before := tr.At(ph.Start - 1e-18)
		after := tr.At(ph.Start + 1e-18)
		for i := range before {
			if math.Abs(before[i]-after[i]) > 1e-6 {
				t.Errorf("node %d jumps at %g: %g -> %g", i, ph.Start, before[i], after[i])
			}
		}
	}
	if out := tr.curve(0); out.node != 2 || out.solN != tr.segs[0].solN {
		t.Error("output curve is not the gate's output node")
	}
}
