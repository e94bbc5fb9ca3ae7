package spice

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"hybriddelay/internal/waveform"
)

// inverterCircuit builds a CMOS inverter with a raised-cosine input
// edge — a small nonlinear circuit whose transient exercises MOSFET
// stamps, charge state and the adaptive stepper.
func inverterCircuit() (*Circuit, NodeID) { return inverterChain(1) }

// inverterChain builds n of inverterCircuit's inverters in series
// behind its input edge, each stage loaded like its output; it returns
// the last stage's output. inverterChain(1) is inverterCircuit.
func inverterChain(n int) (*Circuit, NodeID) {
	c := NewCircuit()
	vdd := c.Node("vdd")
	in := c.Node("in")
	c.AddDCVSource("VDD", vdd, Ground, 0.8)
	c.AddVSource("VIN", in, Ground, waveform.RaisedCosineEdge(2e-9, 1e-9, 0, 0.8))
	pp := pmosParams()
	pp.Cgs, pp.Cgd, pp.Cdb = 0.1e-15, 0.1e-15, 0.2e-15
	np := nmosParams()
	np.Cgs, np.Cgd, np.Cdb = 0.1e-15, 0.1e-15, 0.2e-15
	for i := 0; i < n; i++ {
		name, sfx := "out", ""
		if i > 0 {
			sfx = fmt.Sprint(i)
			name += sfx
		}
		out := c.Node(name)
		c.AddMOSFET("MP"+sfx, out, in, vdd, pp)
		c.AddMOSFET("MN"+sfx, out, in, Ground, np)
		c.AddCapacitor("CL"+sfx, out, Ground, 2e-15)
		in = out
	}
	return c, in
}

func inverterOptions() TransientOptions {
	return TransientOptions{
		TStart: 0, TStop: 6e-9,
		MaxStep:     20e-12,
		Breakpoints: []float64{2e-9, 3e-9},
	}
}

// requireBitIdentical compares two transient results exactly — every
// captured time and every recorded sample must be the same float64.
func requireBitIdentical(t *testing.T, got, want *TransientResult, label string) {
	t.Helper()
	if len(got.Times) != len(want.Times) {
		t.Fatalf("%s: %d captured points, want %d", label, len(got.Times), len(want.Times))
	}
	for i := range want.Times {
		if got.Times[i] != want.Times[i] {
			t.Fatalf("%s: Times[%d] = %v, want %v", label, i, got.Times[i], want.Times[i])
		}
	}
	if len(got.nodes) != len(want.nodes) {
		t.Fatalf("%s: %d recorded nodes, want %d", label, len(got.nodes), len(want.nodes))
	}
	for n, ws := range want.nodes {
		gs, ok := got.nodes[n]
		if !ok || len(gs) != len(ws) {
			t.Fatalf("%s: node %d: missing or wrong length", label, n)
		}
		for i := range ws {
			if gs[i] != ws[i] {
				t.Fatalf("%s: node %d sample %d = %v, want %v", label, n, i, gs[i], ws[i])
			}
		}
	}
}

// TestSolverTransientBitIdentical: the workspace-reusing Solver run
// repeatedly over the same circuit produces results bit-identical to a
// fresh package-level Transient on a fresh circuit — including with a
// gmin-free operating point start and varying step schedules.
func TestSolverTransientBitIdentical(t *testing.T) {
	c, _ := inverterCircuit()
	s, err := NewSolver(c)
	if err != nil {
		t.Fatal(err)
	}
	for run, maxStep := range []float64{20e-12, 20e-12, 7e-12} {
		opt := inverterOptions()
		opt.MaxStep = maxStep
		got, err := s.Transient(opt)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		ref, refNode := inverterCircuit()
		want, err := Transient(ref, opt)
		if err != nil {
			t.Fatalf("run %d reference: %v", run, err)
		}
		_ = refNode
		requireBitIdentical(t, got, want, "reused solver")
	}
	st := s.Stats()
	if st.Steps == 0 || st.Iterations == 0 || st.Factorizations == 0 {
		t.Errorf("stats not counting: %+v", st)
	}
}

// TestRunObserverStops: an error from Run's observer ends the run at
// that time point and comes back unchanged; the steps before it were
// counted, the ones after it never ran.
func TestRunObserverStops(t *testing.T) {
	c, out := inverterCircuit()
	s, err := NewSolver(c)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	calls := 0
	err = s.Run(inverterOptions(), func(tm float64, v []float64) error {
		if len(v) != 3 {
			t.Fatalf("observed %d values, want every non-ground node", len(v))
		}
		if calls++; calls == 10 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("Run = %v, want the observer's error", err)
	}
	// The first call observes TStart; each later one an accepted step.
	if st := s.Stats(); calls != 10 || st.Steps != 9 {
		t.Errorf("observer called %d times over %d steps, want 10 over 9", calls, st.Steps)
	}
	err = s.Run(TransientOptions{TStart: 0, TStop: 1e-9, Record: []NodeID{out, NodeID(99)}}, func(float64, []float64) error {
		t.Fatal("observer called for an invalid record list")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "unknown node 99") {
		t.Errorf("recording an unknown node: got %v", err)
	}
}

// TestSolverOperatingPointBitIdentical: repeated operating points in
// the reused workspace match the package-level reference exactly.
func TestSolverOperatingPointBitIdentical(t *testing.T) {
	c, _ := inverterCircuit()
	s, err := NewSolver(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{0, 1e-9, 4e-9, 1e-9} {
		got, err := s.OperatingPoint(tm, NewtonOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := inverterCircuit()
		want, err := OperatingPoint(ref, tm, NewtonOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("t=%g: %d unknowns, want %d", tm, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("t=%g: unknown %d = %v, want %v", tm, i, got[i], want[i])
			}
		}
	}
}

func TestNormalizeBreakpoints(t *testing.T) {
	if _, err := normalizeBreakpoints([]float64{1e-9, math.NaN()}, 0, 1e-8); err == nil ||
		!strings.Contains(err.Error(), "non-finite") {
		t.Errorf("NaN breakpoint: err = %v, want non-finite error", err)
	}
	if _, err := normalizeBreakpoints([]float64{math.Inf(1)}, 0, 1e-8); err == nil {
		t.Error("Inf breakpoint accepted")
	}
	// Out-of-window entries are dropped, duplicates collapse, the
	// survivors come back sorted, and tstop is appended.
	got, err := normalizeBreakpoints([]float64{5e-9, -1e-9, 2e-9, 2e-9, 0, 2e-9 + 1e-24, 1e-8, 7e-9}, 0, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2e-9, 5e-9, 7e-9, 1e-8}
	if len(got) != len(want) {
		t.Fatalf("normalized = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("normalized = %v, want %v", got, want)
		}
	}
	// Empty schedule still ends at tstop.
	got, err = normalizeBreakpoints(nil, 0, 1e-8)
	if err != nil || len(got) != 1 || got[0] != 1e-8 {
		t.Errorf("empty schedule = %v, %v; want [1e-08]", got, err)
	}
}

// TestTransientRecordValidation: recording ground yields the constant
// 0 V reference; recording a node the circuit does not have is an
// error instead of a silent all-zero waveform.
func TestTransientRecordValidation(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.AddResistor("R", n, Ground, 1e3)
	c.AddCapacitor("C", n, Ground, 1e-9)
	opt := TransientOptions{
		TStart: 0, TStop: 1e-6, MaxStep: 1e-7,
		InitialConditions: map[NodeID]float64{n: 1},
		Record:            []NodeID{Ground, n},
	}
	res, err := Transient(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Waveform(Ground)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{0, 5e-7, 1e-6} {
		if v := w.At(tm); v != 0 {
			t.Errorf("V(ground, %g) = %g, want 0", tm, v)
		}
	}
	for _, bad := range []NodeID{NodeID(99), NodeID(-3)} {
		opt.Record = []NodeID{bad}
		if _, err := Transient(c, opt); err == nil ||
			!strings.Contains(err.Error(), "cannot record unknown node") {
			t.Errorf("Record %d: err = %v, want unknown-node error", bad, err)
		}
	}
	opt.Record = nil
	opt.Breakpoints = []float64{math.NaN()}
	if _, err := Transient(c, opt); err == nil {
		t.Error("non-finite breakpoint accepted by Transient")
	}
}
