package spice

import (
	"math"
	"testing"

	"hybriddelay/internal/waveform"
)

func TestVoltageDivider(t *testing.T) {
	c := NewCircuit()
	in := c.Node("in")
	mid := c.Node("mid")
	c.AddDCVSource("V1", in, Ground, 10)
	c.AddResistor("R1", in, mid, 1e3)
	c.AddResistor("R2", mid, Ground, 3e3)
	sol, err := OperatingPoint(c, 0, NewtonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vmid := sol[int(mid)-1]
	if math.Abs(vmid-7.5) > 1e-9 {
		t.Errorf("divider mid = %g V, want 7.5", vmid)
	}
}

func TestVSourceBranchCurrent(t *testing.T) {
	c := NewCircuit()
	in := c.Node("in")
	v := c.AddDCVSource("V1", in, Ground, 5)
	c.AddResistor("R", in, Ground, 1e3)
	sol, err := OperatingPoint(c, 0, NewtonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 5 mA flows out of the source's plus terminal into R.
	i := v.Current(c, sol)
	if math.Abs(i+5e-3) > 1e-9 {
		t.Errorf("branch current = %g, want -5e-3 (MNA current into plus)", i)
	}
}

func TestCurrentSource(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.AddISource("I1", n, Ground, 1e-3)
	c.AddResistor("R", n, Ground, 2e3)
	sol, err := OperatingPoint(c, 0, NewtonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol[int(n)-1]; math.Abs(got-2) > 1e-9 {
		t.Errorf("node voltage = %g, want 2 (1mA * 2k)", got)
	}
}

func TestValidate(t *testing.T) {
	c := NewCircuit()
	if err := c.Validate(); err == nil {
		t.Error("expected error for empty circuit")
	}
	n := c.Node("n")
	c.AddResistor("R", n, Ground, 1e3)
	c.AddResistor("R", n, Ground, 1e3)
	if err := c.Validate(); err == nil {
		t.Error("expected duplicate-name error")
	}
}

func TestNodeNaming(t *testing.T) {
	c := NewCircuit()
	if c.Node("0") != Ground || c.Node("gnd") != Ground {
		t.Error("ground aliases broken")
	}
	a := c.Node("a")
	if c.Node("a") != a {
		t.Error("node lookup not idempotent")
	}
	if c.NodeName(a) != "a" || c.NodeName(Ground) != "gnd" {
		t.Error("node names wrong")
	}
	if c.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", c.NumNodes())
	}
}

// TestRCDischarge checks the transient integrator against the exact
// exponential solution of an RC discharge.
func TestRCDischarge(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.AddResistor("R", n, Ground, 1e3)
	c.AddCapacitor("C", n, Ground, 1e-9) // tau = 1 us
	res, err := Transient(c, TransientOptions{
		TStart: 0, TStop: 5e-6,
		MaxStep:           1e-8,
		InitialConditions: map[NodeID]float64{n: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Waveform(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{0.5e-6, 1e-6, 2e-6, 4e-6} {
		want := math.Exp(-tm / 1e-6)
		got := w.At(tm)
		if math.Abs(got-want) > 2e-3 {
			t.Errorf("V(%g) = %g, want %g", tm, got, want)
		}
	}
}

// TestRCChargeThroughSource: step response V(t) = VDD (1 - e^{-t/RC}).
func TestRCChargeStep(t *testing.T) {
	c := NewCircuit()
	in := c.Node("in")
	out := c.Node("out")
	c.AddDCVSource("V", in, Ground, 2)
	c.AddResistor("R", in, out, 1e3)
	c.AddCapacitor("C", out, Ground, 1e-9)
	res, err := Transient(c, TransientOptions{
		TStart: 0, TStop: 5e-6,
		MaxStep:           1e-8,
		InitialConditions: map[NodeID]float64{out: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Waveform(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{1e-6, 3e-6} {
		want := 2 * (1 - math.Exp(-tm/1e-6))
		if got := w.At(tm); math.Abs(got-want) > 4e-3 {
			t.Errorf("V(%g) = %g, want %g", tm, got, want)
		}
	}
}

// TestCoupledRCAgainstODE cross-validates the MNA integrator against the
// closed-form two-node RC ladder used by the hybrid model (mode (0,0)
// topology): VDD - R1 - N(C_N) - R2 - O(C_O).
func TestCoupledRCAgainstODE(t *testing.T) {
	const (
		vdd = 0.8
		r1  = 37.088e3
		r2  = 44.926e3
		cn  = 59.486e-18
		co  = 617.259e-18
	)
	c := NewCircuit()
	src := c.Node("src")
	n := c.Node("n")
	o := c.Node("o")
	c.AddDCVSource("V", src, Ground, vdd)
	c.AddResistor("R1", src, n, r1)
	c.AddResistor("R2", n, o, r2)
	c.AddCapacitor("CN", n, Ground, cn)
	c.AddCapacitor("CO", o, Ground, co)
	res, err := Transient(c, TransientOptions{
		TStart: 0, TStop: 200e-12,
		MaxStep:           0.05e-12,
		InitialConditions: map[NodeID]float64{n: 0, o: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Waveform(o)
	if err != nil {
		t.Fatal(err)
	}
	// Closed form for V_O: mode (0,0) of the hybrid model. Values
	// computed independently below via the analytic two-exponential
	// solution.
	alpha := (co*(r1+r2) - cn*r1) / (2 * co * cn * r1 * r2)
	beta := math.Sqrt((cn*r1+co*(r1+r2))*(cn*r1+co*(r1+r2))-4*co*cn*r1*r2) / (2 * co * cn * r1 * r2)
	gamma := -(cn*r1 + co*(r1+r2)) / (2 * co * cn * r1 * r2)
	l1, l2 := gamma+beta, gamma-beta
	// Coefficients for V_N(0)=V_O(0)=0 in the paper's eigenbasis.
	cnr2 := cn * r2
	c1 := ((0 - vdd) - (0-vdd)*cnr2*(alpha-beta)) / (2 * beta)
	c2 := (0-vdd)*cnr2 - c1
	voExact := func(tm float64) float64 {
		return vdd + c1*(alpha+beta)*math.Exp(l1*tm) + c2*(alpha-beta)*math.Exp(l2*tm)
	}
	for _, tm := range []float64{20e-12, 50e-12, 100e-12, 180e-12} {
		want := voExact(tm)
		got := w.At(tm)
		if math.Abs(got-want) > 2e-3 {
			t.Errorf("V_O(%g ps) = %.6f, want %.6f", tm*1e12, got, want)
		}
	}
}

func TestTransientValidation(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.AddResistor("R", n, Ground, 1e3)
	if _, err := Transient(c, TransientOptions{TStart: 1, TStop: 0}); err == nil {
		t.Error("expected invalid-window error")
	}
}

func TestTransientBreakpoints(t *testing.T) {
	// A pulse source with breakpoints must be resolved accurately.
	c := NewCircuit()
	in := c.Node("in")
	out := c.Node("out")
	edge := waveform.RaisedCosineEdge(50e-9, 10e-9, 0, 1)
	c.AddVSource("V", in, Ground, edge)
	c.AddResistor("R", in, out, 1e3)
	c.AddCapacitor("C", out, Ground, 1e-12) // tau = 1 ns (fast)
	res, err := Transient(c, TransientOptions{
		TStart: 0, TStop: 100e-9,
		MaxStep:           2e-9,
		Breakpoints:       []float64{45e-9},
		InitialConditions: map[NodeID]float64{out: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Waveform(out)
	if err != nil {
		t.Fatal(err)
	}
	// Output follows the (slow) edge closely; at t = 80 ns it is settled.
	if got := w.At(90e-9); math.Abs(got-1) > 1e-2 {
		t.Errorf("settled output = %g, want ~1", got)
	}
	// Threshold crossing within a couple of ns of the input's.
	cr, ok := w.FirstCrossingAfter(0, 0.5, true)
	if !ok {
		t.Fatal("no output crossing")
	}
	if math.Abs(cr-51e-9) > 2e-9 {
		t.Errorf("crossing at %g, want ~51 ns", cr)
	}
}

func TestRecordSubset(t *testing.T) {
	c := NewCircuit()
	a := c.Node("a")
	b := c.Node("b")
	c.AddDCVSource("V", a, Ground, 1)
	c.AddResistor("R", a, b, 1e3)
	c.AddResistor("R2", b, Ground, 1e3)
	res, err := Transient(c, TransientOptions{
		TStart: 0, TStop: 1e-9, MaxStep: 1e-10,
		Record:            []NodeID{b},
		InitialConditions: map[NodeID]float64{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Waveform(b); err != nil {
		t.Errorf("recorded node missing: %v", err)
	}
	if _, err := res.Waveform(a); err == nil {
		t.Error("unrecorded node should error")
	}
}
