package spice

import (
	"errors"
	"strings"
	"testing"

	"hybriddelay/internal/la"
	"hybriddelay/internal/waveform"
)

// Failure-injection tests: the solver must fail loudly and descriptively
// on pathological inputs rather than returning garbage.

func TestSingularMNAFails(t *testing.T) {
	// A floating node with only a capacitor has no DC path: the DC
	// operating point is singular and must be reported as a typed
	// solve error wrapping la.ErrSingular.
	c := NewCircuit()
	n := c.Node("float")
	c.AddCapacitor("C", n, Ground, 1e-15)
	_, err := OperatingPoint(c, 0, NewtonOptions{})
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *SolveError", err)
	}
	if !errors.Is(err, la.ErrSingular) {
		t.Errorf("error %v does not wrap la.ErrSingular", err)
	}
	if se.Time != 0 || se.Step != 0 || se.Iterations != 0 || se.Node != "" {
		t.Errorf("context = %+v, want the first iteration of the DC solve at t=0", se)
	}
	if !strings.HasPrefix(err.Error(), "spice: MNA matrix singular at t=0") {
		t.Errorf("message %q lost its prefix", err)
	}
}

func TestNewtonNonConvergenceIsTyped(t *testing.T) {
	// One Newton iteration cannot settle the NOR gate from an all-zero
	// iterate: the transient's first step fails with the time, step,
	// iteration count and the node that moved most.
	c, _ := nor2Circuit()
	_, err := Transient(c, TransientOptions{
		TStart: 0, TStop: 100e-12, MaxStep: 4e-12, MinStep: 1e-12,
		InitialConditions: map[NodeID]float64{},
		Newton:            NewtonOptions{MaxIter: 1},
	})
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("error %v does not wrap a *SolveError", err)
	}
	if errors.Is(err, la.ErrSingular) || se.Err != nil {
		t.Errorf("non-convergence %v wraps a linear-algebra error", err)
	}
	if se.Time <= 0 || se.Step <= 0 || se.Iterations != 1 || se.Node == "" {
		t.Errorf("context = %+v, want a transient step after one iteration with a worst node", se)
	}
	if !strings.Contains(err.Error(), "spice: Newton did not converge at t=") {
		t.Errorf("message %q lost its prefix", err)
	}
}

func TestCollapsedStepIsTyped(t *testing.T) {
	// The first step of this transient is clamped up to MinStep and its
	// Newton solve fails there: the transient ends with a *StepError at
	// the start time and minimum step, wrapping the *SolveError.
	c, _ := nor2Circuit()
	_, err := Transient(c, TransientOptions{
		TStart: 0, TStop: 100e-12, MaxStep: 4e-12, MinStep: 1e-12,
		InitialConditions: map[NodeID]float64{},
		Newton:            NewtonOptions{MaxIter: 1},
	})
	var step *StepError
	if !errors.As(err, &step) {
		t.Fatalf("error %v is not a *StepError", err)
	}
	var se *SolveError
	if !errors.As(err, &se) || step.Err != se {
		t.Fatalf("step error %v does not wrap the *SolveError", err)
	}
	if step.Time != 0 || step.Step != 1e-12 || se.Step != step.Step {
		t.Errorf("step error %+v (solve %+v), want t=0 at the 1 ps minimum step", step, se)
	}
	if !strings.HasPrefix(err.Error(), "spice: step failed at minimum step size t=0") {
		t.Errorf("message %q lost its prefix", err)
	}
}

func TestShortedSourcesFail(t *testing.T) {
	// Two ideal voltage sources forcing different voltages on the same
	// node produce an inconsistent (singular) MNA system.
	c := NewCircuit()
	n := c.Node("n")
	c.AddDCVSource("V1", n, Ground, 1)
	c.AddDCVSource("V2", n, Ground, 2)
	if _, err := OperatingPoint(c, 0, NewtonOptions{}); err == nil {
		t.Error("contradictory sources accepted")
	}
}

func TestEmptyCircuitFails(t *testing.T) {
	c := NewCircuit()
	if _, err := OperatingPoint(c, 0, NewtonOptions{}); err == nil {
		t.Error("empty circuit accepted")
	}
	if _, err := Transient(c, TransientOptions{TStart: 0, TStop: 1}); err == nil {
		t.Error("empty transient accepted")
	}
}

func TestTransientReportsSourceErrors(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.AddVSource("V", n, Ground, waveform.Constant(1))
	c.AddResistor("R", n, Ground, 1e3)
	// Inverted window.
	if _, err := Transient(c, TransientOptions{TStart: 1, TStop: 0}); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestNewtonToleranceDefaults(t *testing.T) {
	var o NewtonOptions
	o.defaults()
	if o.AbsTol <= 0 || o.RelTol <= 0 || o.MaxIter <= 0 || o.Damping <= 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

func TestValidateMessages(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.AddResistor("", n, Ground, 1e3)
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "empty name") {
		t.Errorf("expected empty-name error, got %v", err)
	}
}

// TestStiffCircuitConverges: a circuit with 6 decades of time-constant
// spread still integrates (the step controller and BE restart after
// breakpoints must cope with stiffness).
func TestStiffCircuitConverges(t *testing.T) {
	c := NewCircuit()
	in := c.Node("in")
	fast := c.Node("fast")
	slow := c.Node("slow")
	edge := waveform.RaisedCosineEdge(10e-9, 1e-9, 0, 1)
	c.AddVSource("V", in, Ground, edge)
	c.AddResistor("Rf", in, fast, 1e2)
	c.AddCapacitor("Cf", fast, Ground, 1e-15) // tau = 0.1 ps
	c.AddResistor("Rs", in, slow, 1e6)
	c.AddCapacitor("Cs", slow, Ground, 1e-13) // tau = 100 ns
	res, err := Transient(c, TransientOptions{
		TStart: 0, TStop: 500e-9,
		MaxStep:           5e-9,
		Breakpoints:       []float64{9.5e-9},
		InitialConditions: map[NodeID]float64{fast: 0, slow: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := res.Waveform(fast)
	if err != nil {
		t.Fatal(err)
	}
	if v := wf.At(400e-9); v < 0.99 {
		t.Errorf("fast node = %g at 400 ns, want ~1", v)
	}
	ws, err := res.Waveform(slow)
	if err != nil {
		t.Fatal(err)
	}
	// Slow node follows 1 - exp(-(t-10ns)/100ns).
	v := ws.At(110e-9)
	if v < 0.5 || v > 0.75 {
		t.Errorf("slow node = %g at 110 ns, want ~0.63", v)
	}
}

// TestMOSFETConvergenceFromBadGuess: Newton with damping must converge
// for the NOR bench even from an all-zero iterate with rail inputs.
func TestMOSFETConvergenceFromBadGuess(t *testing.T) {
	c := NewCircuit()
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	c.AddDCVSource("Vdd", vdd, Ground, 0.8)
	c.AddDCVSource("Vin", in, Ground, 0.8)
	c.AddMOSFET("MP", out, in, vdd, MOSParams{PMOS: true, VT0: 0.2, K: 70e-6, Lambda: 0.25, Gmin: 1e-12})
	c.AddMOSFET("MN", out, in, Ground, MOSParams{VT0: 0.2, K: 70e-6, Lambda: 0.25, Gmin: 1e-12})
	sol, err := OperatingPoint(c, 0, NewtonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := sol[int(out)-1]; v > 0.05 {
		t.Errorf("inverter output = %g with high input, want ~0", v)
	}
}
