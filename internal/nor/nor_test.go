// The tests of this package drive its devices through the analog bench
// of internal/gate (gate.Analog), which every registered gate builds
// from its Stamp.
package nor_test

import (
	"math"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/waveform"
)

// registered returns every registered gate, in name order.
func registered(t *testing.T) []gate.Gate {
	t.Helper()
	var gs []gate.Gate
	for _, name := range gate.Names() {
		g, err := gate.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// newBench builds the analog bench of g at the default parameters with
// the given integrator step.
func newBench(t *testing.T, g gate.Gate, maxStep float64) *gate.Analog {
	t.Helper()
	p := nor.DefaultParams()
	p.MaxStep = maxStep
	b, err := gate.NewAnalog(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// delay runs one probe and fails the test on error.
func delay(t *testing.T, b *gate.Analog, pr gate.Probe) float64 {
	t.Helper()
	d, err := b.Delay(pr)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// characteristic measures the pair characteristic of b.
func characteristic(t *testing.T, b *gate.Analog) (fallMinus, fallZero, fallPlus, riseMinus, riseZero, risePlus float64) {
	t.Helper()
	m, err := b.Measure()
	if err != nil {
		t.Fatal(err)
	}
	c := m.Pair
	return c.FallMinusInf, c.FallZero, c.FallPlusInf, c.RiseMinusInf, c.RiseZero, c.RisePlusInf
}

// TestNewValidation: every gate's bench rejects a parameter set that
// violates a shared invariant.
func TestNewValidation(t *testing.T) {
	bad := map[string]func(*nor.Params){
		"zero CN":           func(p *nor.Params) { p.CN = 0 },
		"zero CO":           func(p *nor.Params) { p.CO = 0 },
		"zero rise time":    func(p *nor.Params) { p.InputRise = 0 },
		"negative rise":     func(p *nor.Params) { p.InputRise = -1 },
		"invalid supply":    func(p *nor.Params) { p.Supply = waveform.Supply{} },
		"pivot threshold 1": func(p *nor.Params) { p.SparsePivotRel = 1 },
	}
	for _, g := range registered(t) {
		t.Run(g.Name(), func(t *testing.T) {
			for name, mutate := range bad {
				p := nor.DefaultParams()
				mutate(&p)
				if _, err := g.NewBench(p); err == nil {
					t.Errorf("%s accepted", name)
				}
			}
		})
	}
}

// TestTruthTable: DC behaviour at every input state (via settled
// transients from a mid-rail start), against each gate's Logic.
func TestTruthTable(t *testing.T) {
	for _, g := range registered(t) {
		t.Run(g.Name(), func(t *testing.T) {
			b := newBench(t, g, 8e-12)
			vdd := b.Params().Supply.VDD
			sub := b.Subcircuit()
			init := map[spice.NodeID]float64{sub.Out: vdd / 2}
			for _, n := range sub.Internal {
				init[n] = vdd / 2
			}
			n := g.Arity()
			for state := 0; state < 1<<n; state++ {
				in := make([]bool, n)
				sigs := make([]waveform.Signal, n)
				for i := range in {
					in[i] = state>>i&1 == 1
					v := 0.0
					if in[i] {
						v = vdd
					}
					sigs[i] = waveform.Constant(v)
				}
				res, err := b.Transient(sigs, nil, 2e-9, init, []spice.NodeID{sub.Out})
				if err != nil {
					t.Fatalf("%v: %v", in, err)
				}
				o, err := res.Waveform(sub.Out)
				if err != nil {
					t.Fatal(err)
				}
				vo := o.At(2e-9)
				if g.Logic(in) && vo < 0.9*vdd {
					t.Errorf("%s%v settled at %g, want ~VDD", g.Name(), in, vo)
				}
				if !g.Logic(in) && vo > 0.1*vdd {
					t.Errorf("%s%v settled at %g, want ~0", g.Name(), in, vo)
				}
			}
		})
	}
}

// TestFig2FallingShape pins the qualitative content of Fig. 2b: MIS
// speed-up with minimum at Delta = 0, asymmetric tails with
// fall(+inf) > fall(-inf), and a dip of roughly 30%.
func TestFig2FallingShape(t *testing.T) {
	fm, f0, fp, _, _, _ := characteristic(t, newBench(t, gate.NOR2, 4e-12))
	if !(f0 < fm && f0 < fp) {
		t.Errorf("no falling speed-up: %g %g %g", fm, f0, fp)
	}
	dip := (f0 - fm) / fm
	if dip > -0.2 || dip < -0.5 {
		t.Errorf("falling dip = %.1f%%, expected in [-50%%, -20%%] (paper ~-28%%)", 100*dip)
	}
	if fp <= fm {
		t.Errorf("tail asymmetry wrong: fall(+inf)=%g <= fall(-inf)=%g (T2 drag missing)", fp, fm)
	}
	// Absolute scale: tens of picoseconds like the paper's 15nm library.
	if f0 < 10e-12 || fm > 80e-12 {
		t.Errorf("falling delays outside the calibrated band: %g %g %g", fm, f0, fp)
	}
}

// TestFig2RisingShape pins Fig. 2d: slow-down around Delta = 0 and
// rise(-inf) > rise(+inf) (early A transition precharges node N).
func TestFig2RisingShape(t *testing.T) {
	fm, _, _, rm, r0, rp := characteristic(t, newBench(t, gate.NOR2, 4e-12))
	if !(r0 > rm && r0 > rp) {
		t.Errorf("no rising slow-down: %g %g %g", rm, r0, rp)
	}
	if rm <= rp {
		t.Errorf("rising tails ordered wrongly: -inf=%g, +inf=%g", rm, rp)
	}
	bump := (r0 - rm) / rm
	if bump < 0.01 || bump > 0.25 {
		t.Errorf("rising bump = %.1f%%, expected a few percent (paper ~+2..+8%%)", 100*bump)
	}
	// Rising delays exceed falling ones (serial pull-up), roughly 1.4x.
	if rm < 1.1*fm {
		t.Errorf("rise/fall ratio too small: %g vs %g", rm, fm)
	}
}

// TestFallingWaveformShape reproduces Fig. 2a: the output falls from
// high to low, with the inputs crossing the threshold 30 ps apart.
func TestFallingWaveformShape(t *testing.T) {
	b := newBench(t, gate.NOR2, 4e-12)
	w, err := b.Waveforms(b.Pair(30e-12, true))
	if err != nil {
		t.Fatal(err)
	}
	s := b.Params().Supply
	if w.Out.At(0) < 0.95*s.VDD {
		t.Error("output must start high")
	}
	if w.Out.At(w.Out.End()) > 0.05*s.VDD {
		t.Error("output must end low")
	}
	ca, ok := w.In[0].FirstCrossingAfter(0, s.Vth, true)
	if !ok {
		t.Fatal("input A never crossed")
	}
	cb, ok := w.In[1].FirstCrossingAfter(0, s.Vth, true)
	if !ok {
		t.Fatal("input B never crossed")
	}
	if math.Abs((cb-ca)-30e-12) > 1e-12 {
		t.Errorf("input separation = %g, want 30 ps", cb-ca)
	}
}

// TestRisingWaveformShape reproduces Fig. 2c: the gate only switches
// after both inputs have fallen.
func TestRisingWaveformShape(t *testing.T) {
	b := newBench(t, gate.NOR2, 4e-12)
	w, err := b.Waveforms(b.Pair(40e-12, false))
	if err != nil {
		t.Fatal(err)
	}
	s := b.Params().Supply
	cb, ok := w.In[1].FirstCrossingAfter(0, s.Vth, false)
	if !ok {
		t.Fatal("input B never fell")
	}
	co, ok := w.Out.FirstCrossingAfter(0, s.Vth, true)
	if !ok {
		t.Fatal("output never rose")
	}
	if co <= cb {
		t.Error("output rose before the later input fell")
	}
	if w.Out.At(w.Out.End()) < 0.9*s.VDD {
		t.Error("output must end high")
	}
}

// TestRisingVNWorstCase: starting with V_N = GND is slower than with
// V_N = VDD (the history effect of §II).
func TestRisingVNWorstCase(t *testing.T) {
	b := newBench(t, gate.NOR2, 4e-12)
	pr := b.Pair(0, false)
	slow := delay(t, b, pr)
	pr.VInt = b.Params().Supply.VDD
	if fast := delay(t, b, pr); fast >= slow {
		t.Errorf("V_N=VDD (%g) should be faster than V_N=GND (%g)", fast, slow)
	}
}

// TestSweepMonotoneTails: delays converge to the SIS values for large
// separations.
func TestSweepMonotoneTails(t *testing.T) {
	b := newBench(t, gate.NOR2, 4e-12)
	d1 := delay(t, b, b.Pair(150e-12, true))
	d2 := delay(t, b, b.Pair(nor.SISFar, true))
	if math.Abs(d1-d2) > 0.5e-12 {
		t.Errorf("falling tail not converged: %g vs %g", d1, d2)
	}
}

// TestSweepsAPI: sweeping every gate's pair probe over the input
// separation gives plausible delays in both input directions.
func TestSweepsAPI(t *testing.T) {
	for _, g := range registered(t) {
		b := newBench(t, g, 8e-12)
		for _, rising := range []bool{true, false} {
			for _, d := range []float64{-40e-12, 0, 40e-12} {
				if v := delay(t, b, b.Pair(d, rising)); v <= 0 || v > 200e-12 {
					t.Errorf("%s rising=%v: implausible delay %g at Delta %g", g.Name(), rising, v, d)
				}
			}
		}
	}
}

// TestNodesAndCircuit: every bench's circuit is valid and its input,
// internal and output nodes are distinct.
func TestNodesAndCircuit(t *testing.T) {
	for _, g := range registered(t) {
		b := newBench(t, g, 8e-12)
		sub := b.Subcircuit()
		nodes := append(append(b.Inputs(), sub.Internal...), sub.Out)
		ids := map[spice.NodeID]bool{}
		for _, n := range nodes {
			ids[n] = true
		}
		if len(ids) != len(nodes) || len(b.Inputs()) != g.Arity() {
			t.Errorf("%s: nodes %v not distinct or wrong input count", g.Name(), nodes)
		}
		if err := b.Circuit().Validate(); err != nil {
			t.Errorf("%s: bench netlist invalid: %v", g.Name(), err)
		}
	}
}

// TestProbeRejectsWrongArity: a probe must place every input.
func TestProbeRejectsWrongArity(t *testing.T) {
	b := newBench(t, gate.NOR3, 8e-12)
	if _, err := b.Delay(gate.Probe{Offsets: []float64{0, 0}, Rising: true}); err == nil {
		t.Error("two offsets accepted by a 3-input bench")
	}
}
